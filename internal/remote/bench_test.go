package remote

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ktpm"
)

// BenchmarkRouteVsScatter measures the coordinator over loopback HTTP
// workers that all serve one Database: `route` sends each request to one
// of two replicas. The queries run from b.RunParallel goroutines, so
// -cpu 1,2 shows what idle cores buy. The network-worker decision rule
// in docs/DISTRIBUTED.md was read from this benchmark's table, which
// also had `scatter=2` and `scatter=4` arms (the match space split
// across hash-partitioned workers and merged); those arms went with the
// scatter-gather they measured, and the table records them.
func BenchmarkRouteVsScatter(b *testing.B) {
	db := testDB(b, 1500, 41)
	var queries []*ktpm.Query
	for _, qs := range []string{"a(b,c)", "b(c,d)", "c(d(e))", "d(e,a)", "a(c(d))", "e(a,b)"} {
		q, err := db.ParseQuery(qs)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d/route", k), func(b *testing.B) {
			coord := newTestCoordinator(b, db, 2, Config{})
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[int(next.Add(1))%len(queries)]
					if _, err := coord.TopKWith(q, k, ktpm.Options{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
