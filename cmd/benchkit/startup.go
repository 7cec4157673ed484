package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ktpm"
	"ktpm/internal/bench"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// runStartupSweep measures the snapshot plane's startup economics: at
// each graph size, how long acquiring a servable database takes —
// building from the raw graph versus opening a prepared KTPMSNAP2
// snapshot eagerly, lazily, or via mmap — and what the first query then
// costs on the fresh database. Lazy and mmap open in O(directory) time;
// their first query pays the deferred table faults once. It lives here
// rather than internal/bench because it exercises the public
// ktpm.SaveSnapshot/OpenSnapshot API, which internal/bench cannot import
// (the root package's own benchmarks import internal/bench). ops is the
// iteration count per configuration (0 means 5); builds run once per
// size (they dwarf the open times being compared).
func runStartupSweep(ops int) ([]*bench.StartupRow, error) {
	if ops <= 0 {
		ops = 5
	}
	dir, err := os.MkdirTemp("", "ktpm-startup")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []*bench.StartupRow
	for _, nodes := range []int{500, 1000, 2000} {
		g := bench.StartupGraph(nodes)
		var buf bytes.Buffer
		if err := graph.Encode(&buf, g); err != nil {
			return nil, err
		}
		pg, err := ktpm.LoadGraph(&buf)
		if err != nil {
			return nil, err
		}
		trees, err := gen.QuerySet(g, 4, 10, true, 12345)
		if err != nil {
			return nil, err
		}
		qstr := trees[0].String()
		const k = 100

		t0 := time.Now()
		db, err := ktpm.BuildDatabase(pg, ktpm.DatabaseOptions{})
		if err != nil {
			return nil, err
		}
		buildMS := msSince(t0)
		firstMS, err := firstQueryMS(db, qstr, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, &bench.StartupRow{
			Name:  fmt.Sprintf("n=%d/build", nodes),
			Nodes: nodes, Mode: "build", Ops: 1,
			OpenMS: buildMS, FirstQueryMS: firstMS,
		})

		path := filepath.Join(dir, fmt.Sprintf("n%d.snap", nodes))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := ktpm.SaveSnapshot(f, db); err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}

		for _, mode := range []ktpm.SnapshotMode{ktpm.SnapshotEager, ktpm.SnapshotLazy, ktpm.SnapshotMMap} {
			var openMS, queryMS float64
			// The row records the effective mode, not the requested one:
			// on platforms without mmap the "mmap" point degrades to lazy,
			// and publishing it under the requested name would mislabel
			// what was measured.
			effective := mode.String()
			for op := 0; op < ops; op++ {
				t0 := time.Now()
				sdb, err := ktpm.OpenSnapshot(path, ktpm.SnapshotOptions{Mode: mode})
				if err != nil {
					return nil, err
				}
				openMS += msSince(t0)
				if ss, ok := sdb.SnapshotStats(); ok {
					effective = ss.Mode
				}
				ms, err := firstQueryMS(sdb, qstr, k)
				if err != nil {
					sdb.Close()
					return nil, err
				}
				queryMS += ms
				if err := sdb.Close(); err != nil {
					return nil, err
				}
			}
			rows = append(rows, &bench.StartupRow{
				Name:  fmt.Sprintf("n=%d/%s", nodes, effective),
				Nodes: nodes, Mode: effective, Ops: ops,
				OpenMS:        openMS / float64(ops),
				FirstQueryMS:  queryMS / float64(ops),
				SnapshotBytes: fi.Size(),
			})
		}
	}
	return rows, nil
}

// firstQueryMS times one cold TopK on a freshly opened database.
func firstQueryMS(db *ktpm.Database, qstr string, k int) (float64, error) {
	q, err := db.ParseQuery(qstr)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := db.TopK(q, k); err != nil {
		return 0, err
	}
	return msSince(t0), nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
