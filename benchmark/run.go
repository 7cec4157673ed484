package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ktpm"
)

// workload is one named traffic mix. The names are permanent: later
// changes cite them.
type workload struct {
	name string
	// rate is the paced phase's requests per second. It is pinned here,
	// at 35-50% of the closed-loop rate measured when the benchmark was
	// written, so the paced phase loads the daemon without queueing.
	rate float64
	// replayN is how many requests of the sequence the traced replay
	// pushes through the layers.
	replayN int
	// unit says what capacity_per_s counts on this workload.
	unit string
}

var workloads = []*workload{
	{name: "query_uncached", rate: 500, replayN: 1000, unit: "queries"},
	{name: "query_hot", rate: 2000, replayN: 1000, unit: "queries"},
	{name: "deep_sharded", rate: 40, replayN: 80, unit: "matches"},
	{name: "dist_gather", rate: 100, replayN: 300, unit: "queries"},
	{name: "ingest_mixed", rate: 100, replayN: 200, unit: "edges"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what every run of one invocation shares.
type env struct {
	ktpmd, ktpm string // built programs
	out         string // output directory
	seed        int64
	seconds     float64
	smoke       bool
	golden      bool // compare the digests with benchmark/golden
	sz          sizes
	nproc       int
	spec        *benchSpec
}

// Each run splits its measured seconds between the paced and the closed
// loop, 60 to 40; warm-up comes before and is not counted. The two
// alternate in `cycles` slices each instead of running once each: this
// machine's speed wanders by a tenth over several seconds, and a metric
// taken from one contiguous stretch inherits whatever that stretch met,
// while slices spread over the whole run average it out.
const cycles = 4

func (e *env) pacedSlice() time.Duration  { return secs(e.seconds * 0.6 / cycles) }
func (e *env) closedSlice() time.Duration { return secs(e.seconds * 0.4 / cycles) }

// tracedDur is the paced phase of a traced run: shorter, because the
// replay that follows needs the rest of the run's time.
func (e *env) tracedDur() time.Duration { return secs(e.seconds * 0.4) }
func (e *env) warmDur() time.Duration {
	if e.smoke {
		return 300 * time.Millisecond
	}
	return 1500 * time.Millisecond
}

func (e *env) rate(w *workload) float64 {
	if e.smoke {
		return w.rate / 5 // smoke checks plumbing, not speed
	}
	return w.rate
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupRepeats is how many times a run launches its daemons to take the
// median launch-to-ready time.
const setupRepeats = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload in one mode.
type runResult struct {
	Workload   string            `json:"workload"`
	Trace      int               `json:"trace"`
	Seed       int64             `json:"seed"`
	InputsSHA  string            `json:"inputs_sha256"`
	AnswersSHA string            `json:"answers_sha256,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	values     map[string]float64
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

// problem records why the run does not count; the first few are kept.
func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// count adds a phase's requests to attempted and its failures to failed.
func (r *runResult) count(ph *phase) {
	r.Attempted += len(ph.samples)
	for i := range ph.samples {
		if s := &ph.samples[i]; !s.ok() {
			r.Failed++
			r.problem("%s request %d: status %d %s", s.kind, s.idx, s.status, s.err)
		}
	}
}

// checkSamples compares every kept reply of the phases with the oracle.
func (r *runResult) checkSamples(o oracle, seq []request, phases ...*phase) {
	for _, ph := range phases {
		for i := range ph.samples {
			s := &ph.samples[i]
			if s.body == nil || !s.ok() {
				continue
			}
			if err := o.check(&seq[s.idx%len(seq)], s.body); err != nil {
				r.Failed++
				r.problem("answer check: %v", err)
			}
		}
	}
}

// topology is the daemons of one workload: the one the generator talks
// to, and behind it the workers of a coordinator.
type topology struct {
	front   *proc
	workers []*proc
}

func (t *topology) all() []*proc { return append([]*proc{t.front}, t.workers...) }

func (t *topology) stop() {
	for _, p := range t.all() {
		if p != nil {
			p.stop()
		}
	}
}

func (t *topology) rssPeakMB() (float64, error) {
	var sum float64
	for _, p := range t.all() {
		mb, err := p.rssPeakMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// launch starts the workload's daemons and returns once every one
// answers /readyz. src is the snapshot, or for ingest_mixed the graph
// file; walDir is used by ingest_mixed only.
func (e *env) launch(w *workload, dir, src, walDir string) (*topology, error) {
	t := &topology{}
	start := func(role string, args ...string) (*proc, error) {
		p, err := startDaemon(e.ktpmd, filepath.Join(dir, "ktpmd-"+role+".log"), args...)
		if err != nil {
			return nil, err
		}
		if err := p.waitReady(60 * time.Second); err != nil {
			p.kill()
			return nil, err
		}
		return p, nil
	}
	var err error
	switch w.name {
	case "query_uncached", "query_hot":
		t.front, err = start("serve", "-snapshot", src)
	case "deep_sharded":
		t.front, err = start("serve", "-snapshot", src, "-shards", "2", "-partition", "label")
	case "dist_gather":
		// Workers first: a coordinator that finds one missing sleeps a
		// second before it looks again.
		var addrs []string
		for i := 0; i < 2 && err == nil; i++ {
			var p *proc
			p, err = start(fmt.Sprintf("worker%d", i), "-snapshot", src,
				"-role", "worker", "-worker-index", fmt.Sprint(i), "-worker-count", "2")
			if err == nil {
				t.workers = append(t.workers, p)
				addrs = append(addrs, p.addr)
			}
		}
		if err == nil {
			t.front, err = start("coordinator", "-snapshot", src,
				"-role", "coordinator", "-workers", strings.Join(addrs, ","))
		}
	case "ingest_mixed":
		t.front, err = start("serve", "-graph", src, "-wal-dir", walDir, "-fsync", "always")
	}
	if err != nil {
		for _, p := range t.workers {
			p.stop()
		}
		return nil, err
	}
	return t, nil
}

// launchTimed launches the workload setupRepeats times, stops all but
// the last, and returns the last with the median launch-to-ready time.
// The write path's directory, when there is one, is emptied before each
// launch so every one boots the same state.
func (e *env) launchTimed(w *workload, dir, src, walDir string) (*topology, float64, error) {
	var readyS []float64
	for i := 0; ; i++ {
		if walDir != "" {
			if err := os.RemoveAll(walDir); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		t, err := e.launch(w, dir, src, walDir)
		if err != nil {
			return nil, 0, err
		}
		readyS = append(readyS, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return t, p50(readyS), nil
		}
		t.stop()
	}
}

// saveSnapshotCLI runs `ktpm -graph G -save-snapshot S -snapshot-format v2`
// and returns its wall time.
func (e *env) saveSnapshotCLI(graphPath, snapPath string) (float64, error) {
	t0 := time.Now()
	cmd := exec.Command(e.ktpm, "-graph", graphPath, "-save-snapshot", snapPath, "-snapshot-format", "v2")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("ktpm -save-snapshot: %v\n%s", err, out)
	}
	return time.Since(t0).Seconds(), nil
}

// saveSnapshotTraced does the same work in this process with a span
// around each layer call, and sets the closure's set-up metrics.
func saveSnapshotTraced(tr *tracer, graphText []byte, snapPath string, res *runResult) error {
	tr.pass = "setup"
	g, err := ktpm.LoadGraph(bytes.NewReader(graphText))
	if err != nil {
		return err
	}
	id := tr.begin("closure.build")
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("closure.snapshot_write")
	f, err := os.Create(snapPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = ktpm.SaveSnapshotAs(bw, db, ktpm.SnapshotV2)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	if err != nil {
		return err
	}
	entries, _, _, _ := db.ClosureStats()
	res.set("closure.build_s", p50(tr.durations("setup", "closure.build"))/1e9)
	res.set("closure.snapshot_write_s", p50(tr.durations("setup", "closure.snapshot_write"))/1e9)
	res.set("closure.entries", float64(entries))
	res.set("closure.bytes_per_entry", fileMB(snapPath)*1e6/float64(entries))
	return nil
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1e6
}

// run executes one workload in one mode and fills in every metric of
// that mode.
func (e *env) run(w *workload, traced bool) (*runResult, error) {
	in, err := makeInputs(w, e.seed, e.sz)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: e.seed, InputsSHA: in.sha, Correct: true, values: map[string]float64{}}
	names := e.spec.EndToEnd
	if traced {
		res.Trace = 1
		names = e.spec.PerLayer
	}
	dir := filepath.Join(e.out, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.name == "ingest_mixed" {
		err = e.runIngest(w, in, dir, traced, res)
	} else {
		err = e.runRead(w, in, dir, traced, res)
	}
	if err != nil {
		return nil, err
	}
	if e.golden {
		if err := checkGolden(res); err != nil {
			res.problem("%v", err)
		}
	}
	res.Metrics = map[string]metric{}
	for _, m := range names {
		res.Metrics[m.Name] = metric{Value: res.values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// latenciesMS returns the latencies, from due time to last body byte, of
// the phases' good replies of one kind.
func latenciesMS(kind reqKind, phases ...*phase) []float64 {
	var out []float64
	for _, ph := range phases {
		for i := range ph.samples {
			if s := &ph.samples[i]; s.kind == kind && s.ok() {
				out = append(out, float64(s.done.Sub(s.due))/1e6)
			}
		}
	}
	return out
}

// The two timing metrics are taken from the least disturbed part of a
// run. This machine is a small virtual one on a shared host: for a few
// hundred milliseconds at a time, several times in a run, it gets less of
// the host, and every request in flight then is slower by an amount that
// has nothing to do with the program. That noise only ever adds time. So
// the measured seconds are cut into windows, the statistic is taken in
// each, and the best window is reported: the lowest median latency, the
// highest completion rate. Over ten runs this halved the spread of both
// metrics against the pooled statistic, and a program that is slower
// throughout is slower in its best window too. What it cannot show is a
// tail, which is why the tail percentiles are per-layer metrics and carry
// no bound.

// minWindowSamples is the fewest latencies a window may hold for its
// median to count.
const minWindowSamples = 50

// bestMedianMS cuts each paced phase into equal windows by due time, as
// many as perPhase allows while a window still holds minWindowSamples
// latencies on average, and returns the lowest window median.
func bestMedianMS(kind reqKind, phases []*phase, perPhase int) float64 {
	all := latenciesMS(kind, phases...)
	for perPhase > 1 && len(all)/(perPhase*len(phases)) < minWindowSamples {
		perPhase /= 2
	}
	if len(all)/(perPhase*len(phases)) < minWindowSamples {
		return p50(all)
	}
	best := 0.0
	for _, ph := range phases {
		windows := make([][]float64, perPhase)
		for i := range ph.samples {
			if s := &ph.samples[i]; s.kind == kind && s.ok() {
				w := int(s.due.Sub(ph.start) * time.Duration(perPhase) / (ph.dur + 1))
				windows[w] = append(windows[w], float64(s.done.Sub(s.due))/1e6)
			}
		}
		for _, lat := range windows {
			if m := p50(lat); len(lat) >= minWindowSamples/2 && (best == 0 || m < best) {
				best = m
			}
		}
	}
	return best
}

// windowsPerSlice is how many equal windows a closed-loop slice is cut
// into for the completion rate.
const windowsPerSlice = 3

// bestRate cuts each closed-loop slice into equal windows and returns
// the highest rate, in units completed per second, any window reached.
func bestRate(slices []*phase, units func(*sample) int) float64 {
	best := 0.0
	for _, ph := range slices {
		win := ph.dur / windowsPerSlice
		counts := make([]float64, windowsPerSlice)
		for i := range ph.samples {
			if s := &ph.samples[i]; s.ok() {
				if b := int(s.done.Sub(ph.start) / win); b >= 0 && b < windowsPerSlice {
					counts[b] += float64(units(s))
				}
			}
		}
		for _, c := range counts {
			if r := c / win.Seconds(); r > best {
				best = r
			}
		}
	}
	return best
}

// queryLatency sets query_p50_ms from the paced phases.
func (e *env) queryLatency(res *runResult, paced []*phase, perPhase int) {
	if n := len(latenciesMS(kindQuery, paced...)); n < 100 && !e.smoke {
		res.problem("undersized: %d /query samples in the paced phases", n)
	}
	res.set("query_p50_ms", bestMedianMS(kindQuery, paced, perPhase))
}

// runRead runs the four read workloads.
func (e *env) runRead(w *workload, in *inputs, dir string, traced bool, res *runResult) error {
	graphPath, err := in.writeGraph(dir, "graph.txt")
	if err != nil {
		return err
	}
	snap := filepath.Join(dir, "graph.snap")
	var tr *tracer
	var buildS float64
	if traced {
		tr = newTracer()
		if err := saveSnapshotTraced(tr, in.graphText, snap, res); err != nil {
			return err
		}
	} else if buildS, err = e.saveSnapshotCLI(graphPath, snap); err != nil {
		return err
	}

	topo, readyS, err := e.launchTimed(w, dir, snap, "")
	if err != nil {
		return err
	}
	defer topo.stop() // a second stop of a stopped daemon does nothing
	res.set("setup_s", buildS+readyS)
	res.set("server.ready_ms", readyS*1e3)

	clients := make([]*client, e.nproc)
	for i := range clients {
		clients[i] = newClient(topo.front.url())
		defer clients[i].close()
	}
	keep := sampler(e.seed)
	if err := runSequence(clients, in.prelude); err != nil {
		return fmt.Errorf("prelude: %w", err)
	}
	warm := runPaced(clients, in.seq, 0, e.rate(w), e.warmDur(), func(int) bool { return false })

	var paced, closed []*phase
	if traced {
		before, err := topo.scrape()
		if err != nil {
			return err
		}
		queued := pollQueued(topo.front)
		ph := runPaced(clients, in.seq, warm.next, e.rate(w), e.tracedDur(), keep)
		queuedPeak := queued()
		after, err := topo.scrape()
		if err != nil {
			return err
		}
		paced = []*phase{ph}
		res.count(ph)
		clientLayers(res, ph)
		daemonLayers(res, before, after, ph, queuedPeak)
	} else {
		next, closedNext := warm.next, 0
		for c := 0; c < cycles; c++ {
			p := runPaced(clients, in.seq, next, e.rate(w), e.pacedSlice(), keep)
			cl := runClosed(clients, in.closedSeq, closedNext, e.closedSlice(), keep)
			next, closedNext = p.next, cl.next
			paced, closed = append(paced, p), append(closed, cl)
			res.count(p)
			res.count(cl)
		}
		e.queryLatency(res, paced, 2)
		units := func(s *sample) int { return 1 }
		if w.unit == "matches" {
			units = func(s *sample) int { return s.matches }
		}
		res.set("capacity_per_s", bestRate(closed, units))
		rss, err := topo.rssPeakMB()
		if err != nil {
			return err
		}
		res.set("rss_peak_mb", rss)
		res.set("snapshot_mb", fileMB(snap))
	}
	if why := overloaded(paced); why != "" && !e.smoke {
		res.problem("overloaded: %s", why)
	}
	topo.stop()

	// The daemons are gone; what follows has the machine to itself.
	if tr != nil {
		tr.pass = "setup"
	}
	id := tr.begin("closure.snapshot_open")
	odb, err := ktpm.OpenSnapshot(snap, ktpm.SnapshotOptions{Mode: ktpm.SnapshotMMap})
	tr.end(id)
	if err != nil {
		return err
	}
	defer odb.Close()
	o := oracle{odb}
	res.checkSamples(o, in.seq, paced...)
	res.checkSamples(o, in.closedSeq, closed...)
	if res.AnswersSHA, err = o.answersDigest(in, goldenPrefix, keep); err != nil {
		return err
	}
	if traced {
		res.set("closure.snapshot_open_ms", p50(tr.durations("setup", "closure.snapshot_open"))/1e6)
		return e.replayLayers(w, in, snap, tr, res)
	}
	return nil
}
