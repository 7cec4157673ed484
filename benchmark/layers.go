package main

import (
	"fmt"
	"path/filepath"
	"time"

	"ktpm"
	"ktpm/internal/server"
)

// scraped is one /stats reading of every daemon of a topology.
type scraped struct {
	front   stats
	workers []stats
}

func (t *topology) scrape() (*scraped, error) {
	s := &scraped{}
	var err error
	if s.front, err = t.front.stats(); err != nil {
		return nil, err
	}
	for _, w := range t.workers {
		ws, err := w.stats()
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, ws)
	}
	return s, nil
}

// every calls fn now and then four times a second until the function it
// returns is called, which waits for the last call to end.
func every(fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// pollQueued watches the daemon's admission queue during a phase, which
// only a peak describes; the function it returns ends the watch and gives
// the largest depth seen.
func pollQueued(p *proc) (peak func() float64) {
	var max float64
	stop := every(func() {
		if st, err := p.stats(); err == nil {
			if q, ok := st.num("executor", "queued"); ok && q > max {
				max = q
			}
		}
	})
	return func() float64 {
		stop()
		return max
	}
}

// clientLayers sets the client-side numbers of a traced run's paced
// phase: the per-endpoint latencies and the generator's own health.
func clientLayers(res *runResult, ph *phase) {
	lat := latenciesMS(kindQuery, ph)
	res.set("client.query_p50_ms", percentile(lat, 0.50))
	// A percentile is reported when at least ten samples lie beyond it.
	if len(lat) >= 200 {
		res.set("client.query_p95_ms", percentile(lat, 0.95))
	}
	if len(lat) >= 1000 {
		res.set("client.query_p99_ms", percentile(lat, 0.99))
	}
	res.set("client.stream_p50_ms", p50(latenciesMS(kindStream, ph)))
	res.set("client.batch_p50_ms", p50(latenciesMS(kindBatch, ph)))
	var first, lag []float64
	for i := range ph.samples {
		s := &ph.samples[i]
		lag = append(lag, float64(s.sent.Sub(s.due))/1e6)
		if s.kind == kindStream && s.ok() && !s.first.IsZero() {
			first = append(first, float64(s.first.Sub(s.due))/1e6)
		}
	}
	res.set("client.stream_first_match_p50_ms", p50(first))
	if res.Attempted > 0 {
		res.set("client.error_share", float64(res.Failed)/float64(res.Attempted))
	}
	res.set("gen.cpu_share", ph.cpuShare)
	res.set("gen.send_lag_p99_ms", percentile(lag, 0.99))
	if ph.scheduled > 0 {
		res.set("gen.achieved_share", float64(len(ph.samples))/float64(ph.scheduled))
	}
}

// stageNames are the daemon's stage histograms. The first four are
// consecutive pieces of a request; the last three run inside enumerate.
var stageNames = []string{"parse", "admission_wait", "cache_probe", "enumerate", "shard_merge", "table_fault", "remote_merge"}

// histTime is the time a /stats histogram has accumulated, in ms.
func histTime(s stats, kind, name string) (float64, bool) {
	n, ok1 := s.num("latency", kind, name, "count")
	mean, ok2 := s.num("latency", kind, name, "mean_ms")
	return n * mean, ok1 && ok2
}

// daemonLayers sets what the daemons' own counters say about the paced
// phase: cache behaviour, the stage budget, queueing, and for a
// coordinator the work its workers did per result. A counter the daemon
// does not report leaves its metric at 0.
func daemonLayers(res *runResult, before, after *scraped, ph *phase, queuedPeak float64) {
	hits, _ := delta(before.front, after.front, "cache", "hits")
	misses, _ := delta(before.front, after.front, "cache", "misses")
	if hits+misses > 0 {
		res.set("lru.hit_share", hits/(hits+misses))
	}
	if ev, ok := delta(before.front, after.front, "cache", "evictions"); ok {
		res.set("lru.evictions", ev)
	}

	var total float64
	for _, ep := range []string{"query", "batch", "stream", "explain"} {
		a, ok1 := histTime(before.front, "endpoints", ep)
		b, ok2 := histTime(after.front, "endpoints", ep)
		if ok1 && ok2 {
			total += b - a
		}
	}
	if total > 0 {
		attributed := 0.0
		for i, st := range stageNames {
			a, ok1 := histTime(before.front, "stages", st)
			b, ok2 := histTime(after.front, "stages", st)
			if !ok1 || !ok2 {
				continue
			}
			res.set("daemon.stage."+st+"_share", (b-a)/total)
			if i < 4 {
				attributed += (b - a) / total
			}
		}
		res.set("daemon.unattributed_share", 1-attributed)
	}
	res.set("server.queued_peak", queuedPeak)
	if rej, ok := delta(before.front, after.front, "executor", "rejected"); ok {
		res.set("server.rejected", rej)
	}

	if len(after.workers) > 0 {
		var pulled, streams float64
		for i := range after.workers {
			d, _ := delta(before.workers[i], after.workers[i], "matches")
			pulled += d
			d, _ = delta(before.workers[i], after.workers[i], "streams")
			streams += d
		}
		returned, queries := 0, 0
		for i := range ph.samples {
			if s := &ph.samples[i]; s.ok() {
				returned += s.matches
				queries++
			}
		}
		if returned > 0 {
			res.set("remote.matches_pulled_per_result", pulled/float64(returned))
			res.set("remote.streams_per_query", streams/float64(queries))
		}
	}
}

// replayLayers is the traced replay of a read workload: the first
// replayN requests of its sequence pushed through the layers in this
// process, over a database opened from the snapshot the daemon served.
//
//	cold    a freshly opened database, spans on: exact store counts
//	warm    the same database again: every timing span
//	variant what the workload's daemon does differently, same requests:
//	        obs off (query_*), two shards (deep_sharded), a two-worker
//	        coordinator (dist_gather)
//	plain   warm again with spans off: what recording costs
//
// Every pass sends the workload's prelude first, untraced, as the daemon
// received it: it is what fills query_hot's cache and materializes the
// tables. It ends the traced run: wire.us needs both the client's and the
// handler's median, and the spans are written out.
func (e *env) replayLayers(w *workload, in *inputs, snap string, tr *tracer, res *runResult) error {
	n := w.replayN
	if e.smoke {
		n /= 5
	}
	if n > len(in.seq) {
		n = len(in.seq)
	}
	reqs := in.seq[:n]

	if err := firstTouch(reqs, snap, res); err != nil {
		return err
	}

	db, err := ktpm.OpenSnapshot(snap, ktpm.SnapshotOptions{Mode: ktpm.SnapshotMMap})
	if err != nil {
		return err
	}
	defer db.Close()

	cold := replay(db, server.Config{}, tr, "cold", "lazy.topk", in.prelude, reqs)
	if cold.failed > 0 {
		return fmt.Errorf("replay: %d of %d requests failed", cold.failed, len(in.prelude)+len(reqs))
	}
	calls := float64(len(tr.durations("cold", "lazy.topk")) + len(tr.durations("cold", "lazy.stream")) + len(tr.durations("cold", "batch.topk")))
	if cold.matches > 0 && calls > 0 {
		res.set("store.entries_read_per_match", float64(cold.io1.EntriesRead-cold.io0.EntriesRead)/float64(cold.matches))
		res.set("store.blocks_read_per_query", float64(cold.io1.BlocksRead-cold.io0.BlocksRead)/calls)
	}
	reads, hits := float64(cold.io1.TablesRead-cold.io0.TablesRead), float64(cold.io1.TableHits-cold.io0.TableHits)
	res.set("store.tables_read", reads)
	if reads+hits > 0 {
		res.set("store.table_hit_share", hits/(reads+hits))
	}

	warm := replay(db, server.Config{}, tr, "warm", "lazy.topk", in.prelude, reqs)
	us := func(pass, name string) float64 { return p50(tr.durations(pass, name)) / 1e3 }
	res.set("query.parse_us", us("warm", "query.parse"))
	res.set("lazy.topk_us", us("warm", "lazy.topk"))
	res.set("lazy.first_match_us", us("warm", "lazy.first_match"))
	res.set("lazy.us_per_match", p50(tr.notes["lazy.us_per_match"]))
	res.set("batch.us_per_item", us("warm", "batch.topk")/16)
	res.set("batch.dedup_share", p50(tr.notes["batch.dedup_share"]))

	// daemonPass is the pass whose backend is the one the workload's
	// daemon runs; the server's own numbers are taken from it.
	daemonPass := "warm"
	switch w.name {
	case "query_uncached", "query_hot":
		replay(db, server.Config{DisableObs: true}, tr, "variant", "lazy.topk", in.prelude, reqs)
		res.set("obs.overhead_us", us("warm", "server.handler.query")-us("variant", "server.handler.query"))
	case "deep_sharded":
		sdb, err := db.Shard(2, ktpm.PartitionByLabel())
		if err != nil {
			return err
		}
		replay(sdb, server.Config{}, tr, "variant", "shard.topk", in.prelude, reqs)
		daemonPass = "variant"
		res.set("shard.topk_us", us("variant", "shard.topk"))
		if v := us("variant", "shard.topk"); v > 0 {
			res.set("shard.speedup", us("warm", "lazy.topk")/v)
		}
	case "dist_gather":
		fleet, err := newLocalFleet(db)
		if err != nil {
			return err
		}
		p := replay(fleet.coord, server.Config{}, tr, "variant", "remote.topk", in.prelude, reqs)
		fleet.close()
		daemonPass = "variant"
		res.set("remote.topk_us", us("variant", "remote.topk"))
		if v := us("warm", "lazy.topk"); v > 0 {
			res.set("remote.tax_ratio", us("variant", "remote.topk")/v)
		}
		if p.matches > 0 {
			res.set("remote.wire_bytes_per_match", float64(fleet.wireBytes.Load())/float64(p.matches))
		}
	}
	res.set("server.handler_us", us(daemonPass, "server.handler.query"))
	res.set("server.self_us", p50(tr.selfTimes(daemonPass, "server.handler.query"))/1e3)
	if cold.queries > 0 {
		res.set("server.response_bytes", float64(cold.queryBytes)/float64(cold.queries))
	}

	plain := replay(db, server.Config{}, nil, "plain", "", in.prelude, reqs)
	if plain.wall > 0 {
		res.set("trace.overhead_share", float64(warm.wall)/float64(plain.wall)-1)
	}
	res.set("wire.us", res.values["client.query_p50_ms"]*1e3-res.values["server.handler_us"])
	return tr.write(filepath.Join(e.out, "trace-"+w.name+".json"))
}

// firstTouch sets store.first_touch_ms: what the /query requests among
// the first 200 cost on a database nothing has touched, over what the
// same requests cost straight afterwards.
func firstTouch(seq []request, snap string, res *runResult) error {
	db, err := ktpm.OpenSnapshot(snap, ktpm.SnapshotOptions{Mode: ktpm.SnapshotMMap})
	if err != nil {
		return err
	}
	defer db.Close()
	if len(seq) > 200 {
		seq = seq[:200]
	}
	o := oracle{db}
	var took [2]time.Duration
	for round := range took {
		t0 := time.Now()
		for i := range seq {
			if r := &seq[i]; r.kind == kindQuery {
				if _, err := o.topK(r.q, r.k); err != nil {
					return err
				}
			}
		}
		took[round] = time.Since(t0)
	}
	res.set("store.first_touch_ms", float64(took[0]-took[1])/1e6)
	return nil
}
