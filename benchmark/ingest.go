package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ktpm"
	"ktpm/internal/closure"
	"ktpm/internal/graph"
	"ktpm/internal/wal"
)

// writerSlice is one stretch of the writer's plan: a batch every period,
// or, with period 0, the next batch as soon as the previous is acked.
type writerSlice struct {
	dur, period time.Duration
}

// writerRun is what the writer of ingest_mixed did.
type writerRun struct {
	latMS    []float64 // acked batches, send to ack
	acked    []ingestBatch
	lastLSN  uint64
	failed   int
	problems []string
	// closedEdges acked in closed-loop slices, over closedTime: each such
	// slice counted from its start to its last ack.
	closedEdges int
	closedTime  time.Duration
}

// runWriter replays batches over one connection, slice after slice of the
// plan, until the plan ends or the batches run out.
func runWriter(c *client, batches []ingestBatch, plan []writerSlice) *writerRun {
	wr := &writerRun{}
	next := 0
	send := func() (done time.Time, ok bool) {
		i := next
		next++
		req := newRequest(kindBatch, "/ingest", batches[i].body)
		s := c.do(&req, true)
		var ack struct {
			LSN uint64 `json:"lsn"`
		}
		if !s.ok() || json.Unmarshal(s.body, &ack) != nil || ack.LSN == 0 {
			wr.failed++
			wr.problems = append(wr.problems, fmt.Sprintf("ingest batch %d: status %d %s %s", i, s.status, s.err, bytes.TrimSpace(s.body)))
			return s.done, false
		}
		wr.latMS = append(wr.latMS, float64(s.done.Sub(s.sent))/1e6)
		wr.acked = append(wr.acked, batches[i])
		wr.lastLSN = ack.LSN
		return s.done, true
	}
	start := time.Now()
	for _, sl := range plan {
		end := start.Add(sl.dur)
		if sl.period > 0 {
			for due := start; due.Before(end) && next < len(batches); due = due.Add(sl.period) {
				time.Sleep(time.Until(due))
				send()
			}
		} else {
			var last time.Time
			edges := 0
			for time.Now().Before(end) && next < len(batches) {
				if done, ok := send(); ok {
					last, edges = done, edges+len(batches[next-1].edges)
				}
			}
			if edges > 0 {
				wr.closedEdges += edges
				wr.closedTime += last.Sub(start)
			}
		}
		time.Sleep(time.Until(end))
		start = end
	}
	return wr
}

// watchGenerations lists the write path's directory four times a second
// and remembers every generation file it sees, so that the bytes
// compaction wrote can be added up after files are gone again. The
// function it returns ends the watch and gives the megabytes seen.
func watchGenerations(dir string) (totalMB func() float64) {
	size := map[string]int64{}
	stop := every(func() {
		ents, _ := os.ReadDir(dir)
		for _, ent := range ents {
			if !strings.HasPrefix(ent.Name(), "gen-") || !strings.HasSuffix(ent.Name(), ".snap") {
				continue
			}
			if info, err := ent.Info(); err == nil && info.Size() > size[ent.Name()] {
				size[ent.Name()] = info.Size()
			}
		}
	})
	return func() float64 {
		stop()
		var total int64
		for _, n := range size {
			total += n
		}
		return float64(total) / 1e6
	}
}

// writePeriod paces the writer in its paced slices: 1.67 batches, 6.7
// edges, a second, a third of what the closed loop reaches.
const writePeriod = 600 * time.Millisecond

// runIngest runs ingest_mixed: one connection writes, closed loop, while
// the other reads on a schedule.
func (e *env) runIngest(w *workload, in *inputs, dir string, traced bool, res *runResult) error {
	graphPath, err := in.writeGraph(dir, "base.txt")
	if err != nil {
		return err
	}
	walDir := filepath.Join(dir, "wal")
	var tr *tracer
	snap := filepath.Join(dir, "base.snap") // only the traced replay reads it
	if traced {
		tr = newTracer()
		if err := saveSnapshotTraced(tr, in.graphText, snap, res); err != nil {
			return err
		}
	}

	topo, readyS, err := e.launchTimed(w, dir, graphPath, walDir)
	if err != nil {
		return err
	}
	defer func() { topo.stop() }() // whichever daemon is current: the run restarts it once
	res.set("setup_s", readyS)
	res.set("server.ready_ms", readyS*1e3)

	writer, reader := newClient(topo.front.url()), newClient(topo.front.url())
	defer writer.close()
	defer func() { reader.close() }() // the run reconnects it after the restart
	readers := []*client{reader}
	// Reads during the run race the writes, so no single graph answers
	// them; the probes after the run are the answer check.
	noKeep := func(int) bool { return false }
	warm := runPaced(readers, in.seq, 0, e.rate(w), e.warmDur(), noKeep)

	// End to end the writer alternates like the read workloads do: paced
	// slices, a batch every writePeriod, in which the reader's latency is
	// taken, and closed-loop slices, in which the write rate is taken. A
	// writer that never pauses keeps one core in Ingest and, every other
	// batch, the other in compaction; the reader then waits for a core half
	// the time and its median flips between 1 and 20 ms from run to run.
	// The traced run keeps the writer closed for its whole phase.
	plan := []writerSlice{{dur: e.tracedDur()}}
	if !traced {
		plan = nil
		for c := 0; c < cycles; c++ {
			plan = append(plan, writerSlice{e.pacedSlice(), writePeriod}, writerSlice{dur: e.closedSlice()})
		}
	}
	var dur time.Duration
	for _, sl := range plan {
		dur += sl.dur
	}
	var before *scraped
	var generationsMB, queued func() float64
	if traced {
		if before, err = topo.scrape(); err != nil {
			return err
		}
		generationsMB, queued = watchGenerations(walDir), pollQueued(topo.front)
	}
	var wr *writerRun
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr = runWriter(writer, in.batches, plan)
	}()
	reads := runPaced(readers, in.seq, warm.next, e.rate(w), dur, noKeep)
	wg.Wait()

	res.count(reads)
	res.Attempted += len(wr.latMS) + wr.failed
	res.Failed += wr.failed
	for _, p := range wr.problems {
		res.problem("%s", p)
	}
	if why := overloaded([]*phase{reads}); why != "" && !e.smoke {
		res.problem("overloaded: %s", why)
	}
	ackedEdges := 4 * len(wr.acked)
	if len(wr.latMS) < 20 && !traced && !e.smoke {
		res.problem("undersized: %d acked batches", len(wr.latMS))
	}

	if traced {
		queuedPeak, genMB := queued(), generationsMB()
		after, err := topo.scrape()
		if err != nil {
			return err
		}
		clientLayers(res, reads)
		daemonLayers(res, before, after, reads, queuedPeak)
		res.set("client.ingest_batch_p50_ms", p50(wr.latMS))
		if len(wr.latMS) >= 100 {
			res.set("client.ingest_batch_p90_ms", percentile(wr.latMS, 0.90))
		}
		if appends, ok := delta(before.front, after.front, "ingest", "wal", "appends"); ok && appends > 0 {
			fsyncs, _ := delta(before.front, after.front, "ingest", "wal", "fsyncs")
			res.set("wal.fsyncs_per_batch", fsyncs/appends)
		}
		// The log is cut back after each compaction, so its size now says
		// little; its bytes per edge are taken in the replay below.
		if n, ok := delta(before.front, after.front, "ingest", "compaction", "count"); ok {
			res.set("live.compactions", n)
		}
		if n, ok := delta(before.front, after.front, "ingest", "epoch"); ok {
			res.set("live.epochs_per_s", n/reads.end.Sub(reads.start).Seconds())
		}
		if ackedEdges > 0 {
			res.set("live.compaction_mb_per_edge", genMB/float64(ackedEdges))
		}
	} else {
		// The reads due in the writer's paced slices, as one phase each.
		var paced []*phase
		at := reads.start
		for _, sl := range plan {
			if sl.period > 0 {
				ph := &phase{start: at, dur: sl.dur}
				for _, sm := range reads.samples {
					if !sm.due.Before(at) && sm.due.Before(at.Add(sl.dur)) {
						ph.samples = append(ph.samples, sm)
					}
				}
				paced = append(paced, ph)
			}
			at = at.Add(sl.dur)
		}
		e.queryLatency(res, paced, 2)
		if wr.closedTime > 0 {
			res.set("capacity_per_s", float64(wr.closedEdges)/wr.closedTime.Seconds())
		}
		rss, err := topo.rssPeakMB()
		if err != nil {
			return err
		}
		res.set("rss_peak_mb", rss)
		mb, err := newestGenerationMB(walDir)
		if err != nil {
			return err
		}
		if mb == 0 {
			mb = fileMB(graphPath) // no compaction yet: the daemon serves what it booted on
		}
		res.set("snapshot_mb", mb)
	}

	// After the run: the daemon's answers must be those of a database
	// built from scratch on the boot graph plus every acked edge, before
	// and after a SIGKILL and a restart on the same directory.
	o, err := scratchOracle(in, wr.acked)
	if err != nil {
		return err
	}
	probes := in.seq
	if len(probes) > 50 {
		probes = probes[:50]
	}
	probe := func(when string) {
		for i := range probes {
			s := reader.do(&probes[i], true)
			res.Attempted++
			if !s.ok() {
				res.Failed++
				res.problem("probe %s: %s: status %d %s", when, probes[i].path, s.status, s.err)
			} else if err := o.check(&probes[i], s.body); err != nil {
				res.Failed++
				res.problem("probe %s: %v", when, err)
			}
		}
	}
	probe("after the run")
	topo.front.kill()
	reader.close()
	restarted, err := e.launch(w, dir, graphPath, walDir)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	topo = restarted
	reader = newClient(topo.front.url())
	st, err := topo.front.stats()
	if err != nil {
		return err
	}
	if lsn, ok := st.num("ingest", "last_lsn"); !ok || uint64(lsn) < wr.lastLSN {
		res.Failed++
		res.problem("restart: last_lsn %v, last acked was %d", lsn, wr.lastLSN)
	}
	probe("after SIGKILL and restart")
	topo.stop()

	if traced {
		if err := e.writePathLayers(in, dir, tr, res); err != nil {
			return err
		}
		return e.replayLayers(w, in, snap, tr, res)
	}
	return nil
}

// newestGenerationMB is the size of the snapshot the write path serves:
// the newest generation compaction has written, 0 before the first.
func newestGenerationMB(walDir string) (float64, error) {
	names, err := filepath.Glob(filepath.Join(walDir, "gen-*.snap"))
	if err != nil {
		return 0, err
	}
	if len(names) == 0 {
		return 0, nil
	}
	sort.Strings(names) // the generation number is zero-padded
	return fileMB(names[len(names)-1]), nil
}

// scratchOracle builds, from nothing, the database of the boot graph
// plus the acked edges.
func scratchOracle(in *inputs, acked []ingestBatch) (oracle, error) {
	b := graph.NewBuilder()
	for v := int32(0); v < int32(in.g.NumNodes()); v++ {
		b.AddNode(in.g.LabelName(v))
	}
	in.g.Edges(func(e graph.Edge) bool {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
		return true
	})
	for _, batch := range acked {
		for _, e := range batch.edges {
			b.AddWeightedEdge(e.From, e.To, e.Weight)
		}
	}
	g, err := b.Build()
	if err != nil {
		return oracle{}, err
	}
	pg, err := ktpm.LoadGraph(bytes.NewReader(encodeGraph(g)))
	if err != nil {
		return oracle{}, err
	}
	db, err := ktpm.BuildDatabase(pg, ktpm.DatabaseOptions{})
	return oracle{db}, err
}

// writePathLayers replays the workload's first batches through each
// layer of the write path in this process: the whole of Live.Ingest with
// compaction off, then the log append alone, then the closure delta
// alone. What Ingest costs beyond the two is the republish.
func (e *env) writePathLayers(in *inputs, dir string, tr *tracer, res *runResult) error {
	n := 12
	if e.smoke {
		n = 3
	}
	if n > len(in.batches) {
		n = len(in.batches)
	}
	batches := in.batches[:n]
	tr.pass = "write"

	pg, err := ktpm.LoadGraph(bytes.NewReader(in.graphText))
	if err != nil {
		return err
	}
	db, err := ktpm.BuildDatabase(pg, ktpm.DatabaseOptions{})
	if err != nil {
		return err
	}
	live, err := ktpm.OpenLive(db, ktpm.LiveConfig{
		Dir: filepath.Join(dir, "replay-live"), Fsync: "always",
		CompactThreshold: -1, SnapshotFormat: ktpm.SnapshotV2,
	})
	if err != nil {
		return err
	}
	for i, b := range batches {
		tr.req = i
		id := tr.begin("live.ingest")
		_, err := live.Ingest(b.edges)
		tr.end(id)
		if err != nil {
			live.Close()
			return err
		}
	}
	st := live.IngestStats()
	id := tr.begin("live.compact")
	err = live.Compact()
	tr.end(id)
	if cerr := live.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	lg, err := wal.Open(filepath.Join(dir, "replay-wal"), wal.Options{Policy: wal.FsyncAlways})
	if err != nil {
		return err
	}
	for i, b := range batches {
		// The record Live writes: an edge count, then from, to and
		// weight of each edge, little-endian 32-bit.
		payload := binary.LittleEndian.AppendUint32(nil, uint32(len(b.edges)))
		for _, ed := range b.edges {
			for _, v := range []int32{ed.From, ed.To, ed.Weight} {
				payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
			}
		}
		tr.req = i
		id := tr.begin("wal.append")
		_, err := lg.Append(payload)
		tr.end(id)
		if err != nil {
			lg.Close()
			return err
		}
	}
	ws := lg.Stats()
	if err := lg.Close(); err != nil {
		return err
	}

	g, d := in.g, closure.NewDelta()
	for i, b := range batches {
		edges := make([]graph.Edge, len(b.edges))
		for j, ed := range b.edges {
			edges[j] = graph.Edge{From: ed.From, To: ed.To, Weight: ed.Weight}
		}
		g2, err := closure.CombineGraph(g, edges)
		if err != nil {
			return err
		}
		tr.req = i
		id := tr.begin("closure.delta")
		d.AddEdges(g2, edges)
		tr.end(id)
		g = g2
	}

	ms := func(name string) float64 { return p50(tr.durations("write", name)) / 1e6 }
	res.set("live.ingest_ms", ms("live.ingest"))
	res.set("wal.append_us", ms("wal.append")*1e3)
	res.set("closure.delta_ms_per_batch", ms("closure.delta"))
	res.set("live.publish_ms", ms("live.ingest")-ms("wal.append")-ms("closure.delta"))
	res.set("live.compact_ms", ms("live.compact"))
	if st.AckedEdges > 0 {
		res.set("closure.overlay_entries_per_edge", float64(st.Overlay.Entries)/float64(st.AckedEdges))
		res.set("wal.bytes_per_edge", float64(ws.Bytes)/float64(st.AckedEdges))
	}
	return nil
}
