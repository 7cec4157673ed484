package bench

import (
	"fmt"
	"math/rand"
	"time"

	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/dp"
	"ktpm/internal/graph"
	"ktpm/internal/kgpm"
	"ktpm/internal/lazy"
	"ktpm/internal/pll"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
)

// Algo identifies a kTPM implementation in experiment output.
type Algo int

const (
	DPB Algo = iota
	DPP
	Topk
	TopkEN
)

func (a Algo) String() string {
	return [...]string{"DP-B", "DP-P", "Topk", "Topk-EN"}[a]
}

// AllAlgos is the Figure 6 lineup.
var AllAlgos = []Algo{DPB, DPP, Topk, TopkEN}

// OurAlgos is the Figure 7 lineup (the paper drops the baselines after
// Eval-II because their bytecodes cannot handle the larger settings).
var OurAlgos = []Algo{Topk, TopkEN}

// Disk cost model: the paper measures real HDD I/O, which dominates its
// Figure 6; the simulated store only counts accesses, so the harness
// prices them explicitly when reporting "cpu+io" columns. Random block
// reads (lazy incoming-list loads) cost far more than sequential table
// scans (full run-time-graph identification, D/E summaries), which is
// exactly the trade the priority-based algorithms exploit.
var (
	// RandBlockCost prices one random block read.
	RandBlockCost = 50 * time.Microsecond
	// SeqBlockCost prices one sequentially scanned block.
	SeqBlockCost = 10 * time.Microsecond
)

// runResult is one timed execution.
type runResult struct {
	elapsed time.Duration
	// loaded is the number of run-time-graph entries the run retrieved
	// (full m_R for the materializing algorithms, m'_R for the lazy ones).
	loaded int64
	// randBlocks / seqBlocks feed the disk cost model.
	randBlocks, seqBlocks int64
	// scores is the emitted score sequence.
	scores []int64
}

// modeled returns elapsed plus the priced disk accesses.
func (r runResult) modeled() time.Duration {
	return r.elapsed +
		time.Duration(r.randBlocks)*RandBlockCost +
		time.Duration(r.seqBlocks)*SeqBlockCost
}

// fullScanBlocks estimates the sequential blocks a full run-time-graph
// identification reads: every label-pair table named by a query edge.
func (e *Env) fullScanBlocks(q *query.Tree) int64 {
	bs := int64(e.Store.BlockSize())
	var blocks int64
	seen := map[[2]int32]bool{}
	for u := 1; u < q.NumNodes(); u++ {
		p := q.Nodes[u].Parent
		key := [2]int32{q.Nodes[p].Label, q.Nodes[u].Label}
		if seen[key] {
			continue
		}
		seen[key] = true
		n := int64(len(e.Closure.Table(key[0], key[1])))
		blocks += (n + bs - 1) / bs
	}
	return blocks
}

// runTotal executes one algorithm end to end for the top-k of one query.
func (e *Env) runTotal(q *query.Tree, k int, a Algo) runResult {
	st := e.Store
	st.ResetCounters()
	var (
		res runResult
		r   *rtg.Graph // set by the materializing algorithms
	)
	t0 := time.Now()
	switch a {
	case Topk:
		r = rtg.Build(e.Closure, q)
		for _, m := range core.TopK(r, k) {
			res.scores = append(res.scores, m.Score)
		}
	case DPB:
		r = rtg.Build(e.Closure, q)
		for _, m := range dp.TopK(r, k) {
			res.scores = append(res.scores, m.Score)
		}
	case TopkEN:
		for _, m := range lazy.TopK(st, q, k, lazy.Options{}) {
			res.scores = append(res.scores, m.Score)
		}
	case DPP:
		for _, m := range dp.TopKLazy(st, q, k) {
			res.scores = append(res.scores, m.Score)
		}
	default:
		panic("bench: unknown algo")
	}
	res.elapsed = time.Since(t0)
	if r != nil {
		// The full run-time graph, identified by sequential table scans.
		res.loaded, res.seqBlocks = r.NumEdges(), e.fullScanBlocks(q)
		return res
	}
	c := st.Counters()
	bs := int64(st.BlockSize())
	res.loaded, res.randBlocks, res.seqBlocks = c.EntriesRead, c.BlocksRead, (c.TableEntriesRead+bs-1)/bs
	return res
}

// avgResult aggregates runs over one query set.
type avgResult struct {
	cpu     time.Duration
	modeled time.Duration
	loaded  int64
	n       int
}

// avgOver runs fn once per query and averages measured time, disk-modeled
// time and loaded entries.
func avgOver(qs []*query.Tree, fn func(*query.Tree) runResult) avgResult {
	if len(qs) == 0 {
		return avgResult{}
	}
	var out avgResult
	for _, q := range qs {
		r := fn(q)
		out.cpu += r.elapsed
		out.modeled += r.modeled()
		out.loaded += r.loaded
	}
	n := time.Duration(len(qs))
	out.cpu /= n
	out.modeled /= n
	out.loaded /= int64(len(qs))
	out.n = len(qs)
	return out
}

// RunTable2 reproduces Table 2: transitive-closure pre-computation time
// and size for every dataset.
func RunTable2(datasets []Dataset) *Table {
	t := &Table{
		Title:  "Table 2: computational costs of transitive closures",
		Header: []string{"Graph", "Nodes", "Edges", "TC time", "TC entries", "TC size", "theta"},
	}
	for _, d := range datasets {
		g := d.Build()
		t0 := time.Now()
		c := closure.Compute(g, closure.Options{})
		dt := time.Since(t0)
		s := c.ComputeStats()
		t.AddRow(d.Name,
			fmtCount(int64(g.NumNodes())), fmtCount(int64(g.NumEdges())),
			fmtDur(dt), fmtCount(s.Entries),
			fmt.Sprintf("%.1fMB", float64(s.SizeBytes)/1e6),
			fmt.Sprintf("%.0f", s.Theta))
	}
	return t
}

// RunTable3 reproduces Table 3: average run-time graph sizes per query
// set.
func RunTable3(e *Env, sizes []int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table 3: average run-time graph sizes on %s", e.Dataset.Name),
		Header: []string{"QuerySet", "queries", "nodes(GR)", "edges(GR)"},
	}
	for _, size := range sizes {
		qs := e.Queries(size, true)
		if len(qs) == 0 {
			t.AddRow(fmt.Sprintf("T%d", size), "0", "-", "-")
			continue
		}
		var nodes, edges int64
		for _, q := range qs {
			r := rtg.Build(e.Closure, q)
			nodes += int64(r.NumNodes())
			edges += r.NumEdges()
		}
		n := int64(len(qs))
		t.AddRow(fmt.Sprintf("T%d", size), fmt.Sprintf("%d", len(qs)),
			fmtCount(nodes/n), fmtCount(edges/n))
	}
	return t
}

// RunFig6 reproduces Figure 6 on one dataset: total, top-1, and
// enumeration time for all four algorithms with T20, k ∈ ks. Enumeration
// time is total minus top-1, the paper's Figures 6(e)/6(f) quantity.
func RunFig6(e *Env, ks []int) []*Table {
	qs := e.Queries(20, true)
	total := &Table{
		Title:  fmt.Sprintf("Figure 6(a/b): total time (cpu), %s, T20", e.Dataset.Name),
		Header: []string{"k", "DP-B", "DP-P", "Topk", "Topk-EN"},
	}
	modeled := &Table{
		Title:  fmt.Sprintf("Figure 6(a/b): total time with disk model (cpu+io), %s, T20", e.Dataset.Name),
		Header: []string{"k", "DP-B", "DP-P", "Topk", "Topk-EN"},
	}
	top1 := &Table{
		Title:  fmt.Sprintf("Figure 6(c/d): top-1 time (cpu+io), %s, T20", e.Dataset.Name),
		Header: []string{"k", "DP-B", "DP-P", "Topk", "Topk-EN"},
	}
	enum := &Table{
		Title:  fmt.Sprintf("Figure 6(e/f): enumeration time (total - top-1, cpu+io), %s, T20", e.Dataset.Name),
		Header: []string{"k", "DP-B", "DP-P", "Topk", "Topk-EN"},
	}
	loads := &Table{
		Title:  fmt.Sprintf("Figure 6 companion: run-time-graph entries retrieved, %s, T20", e.Dataset.Name),
		Header: []string{"k", "DP-B", "DP-P", "Topk", "Topk-EN"},
	}
	for _, k := range ks {
		totRow := []string{fmt.Sprintf("%d", k)}
		modRow := []string{fmt.Sprintf("%d", k)}
		topRow := []string{fmt.Sprintf("%d", k)}
		enumRow := []string{fmt.Sprintf("%d", k)}
		loadRow := []string{fmt.Sprintf("%d", k)}
		for _, a := range AllAlgos {
			tot := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, k, a) })
			t1 := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, 1, a) })
			if tot.n == 0 {
				for _, row := range []*[]string{&totRow, &modRow, &topRow, &enumRow, &loadRow} {
					*row = append(*row, "-")
				}
				continue
			}
			totRow = append(totRow, fmtDur(tot.cpu))
			modRow = append(modRow, fmtDur(tot.modeled))
			topRow = append(topRow, fmtDur(t1.modeled))
			d := tot.modeled - t1.modeled
			if d < 0 {
				d = 0
			}
			enumRow = append(enumRow, fmtDur(d))
			loadRow = append(loadRow, fmtCount(tot.loaded))
		}
		total.AddRow(totRow...)
		modeled.AddRow(modRow...)
		top1.AddRow(topRow...)
		enum.AddRow(enumRow...)
		loads.AddRow(loadRow...)
	}
	return []*Table{total, modeled, top1, enum, loads}
}

// RunFig7K reproduces Figure 7(a/b): Topk vs Topk-EN over k with T50.
func RunFig7K(e *Env, ks []int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7(a/b): vary k, %s, T50 (cpu+io model)", e.Dataset.Name),
		Header: []string{"k", "Topk", "Topk-EN", "edges(Topk)", "edges(Topk-EN)"},
	}
	qs := e.Queries(50, true)
	for _, k := range ks {
		row := []string{fmt.Sprintf("%d", k)}
		var loads []string
		for _, a := range OurAlgos {
			r := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, k, a) })
			if r.n == 0 {
				row = append(row, "-")
				loads = append(loads, "-")
				continue
			}
			row = append(row, fmtDur(r.modeled))
			loads = append(loads, fmtCount(r.loaded))
		}
		row = append(row, loads...)
		t.AddRow(row...)
	}
	return t
}

// RunFig7T reproduces Figure 7(c/d): vary the query size, k = 20.
func RunFig7T(e *Env, sizes []int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7(c/d): vary T, %s, k=20 (cpu+io model)", e.Dataset.Name),
		Header: []string{"T", "Topk", "Topk-EN", "edges(Topk)", "edges(Topk-EN)"},
	}
	for _, size := range sizes {
		qs := e.Queries(size, true)
		row := []string{fmt.Sprintf("T%d", size)}
		var loads []string
		for _, a := range OurAlgos {
			r := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, 20, a) })
			if r.n == 0 {
				row = append(row, "-")
				loads = append(loads, "-")
				continue
			}
			row = append(row, fmtDur(r.modeled))
			loads = append(loads, fmtCount(r.loaded))
		}
		row = append(row, loads...)
		t.AddRow(row...)
	}
	return t
}

// RunFig7G reproduces Figure 7(e/f): vary the data graph, T50, k = 20.
// The paper notes Topk runs out of memory on GD5; at laptop scale both run,
// and the edges column shows the asymmetry that causes it.
func RunFig7G(datasets []Dataset) *Table {
	t := &Table{
		Title:  "Figure 7(e/f): vary data graph, T50, k=20 (cpu+io model)",
		Header: []string{"Graph", "Topk", "Topk-EN", "edges(Topk)", "edges(Topk-EN)"},
	}
	for _, d := range datasets {
		e := Prepare(d)
		qs := e.Queries(50, true)
		row := []string{d.Name}
		var loads []string
		for _, a := range OurAlgos {
			r := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, 20, a) })
			if r.n == 0 {
				row = append(row, "-")
				loads = append(loads, "-")
				continue
			}
			row = append(row, fmtDur(r.modeled))
			loads = append(loads, fmtCount(r.loaded))
		}
		row = append(row, loads...)
		t.AddRow(row...)
	}
	return t
}

// RunFig8K reproduces Figure 8(a): Topk-GT (duplicate-label queries,
// served by the generalized Topk-EN) over k.
func RunFig8K(envs []*Env, ks []int) *Table {
	t := &Table{
		Title:  "Figure 8(a): Topk-GT vary k, T50 with duplicate labels",
		Header: append([]string{"k"}, envNames(envs)...),
	}
	for _, k := range ks {
		row := []string{fmt.Sprintf("%d", k)}
		for _, e := range envs {
			qs := e.Queries(50, false)
			r := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, k, TopkEN) })
			if r.n == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmtDur(r.modeled))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// RunFig8T reproduces Figure 8(b): Topk-GT over query size.
func RunFig8T(envs []*Env, sizes []int) *Table {
	t := &Table{
		Title:  "Figure 8(b): Topk-GT vary T (duplicate labels), k=20",
		Header: append([]string{"T"}, envNames(envs)...),
	}
	for _, size := range sizes {
		row := []string{fmt.Sprintf("T%d", size)}
		for _, e := range envs {
			qs := e.Queries(size, false)
			r := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, 20, TopkEN) })
			if r.n == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmtDur(r.modeled))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// RunFig8G reproduces Figures 8(c)/8(d): Topk-GT over data graph size.
func RunFig8G(datasets []Dataset) *Table {
	t := &Table{
		Title:  "Figure 8(c/d): Topk-GT vary data graph, T50 (duplicate labels), k=20",
		Header: []string{"Graph", "Topk-GT"},
	}
	for _, d := range datasets {
		e := Prepare(d)
		qs := e.Queries(50, false)
		r := avgOver(qs, func(q *query.Tree) runResult { return e.runTotal(q, 20, TopkEN) })
		if r.n == 0 {
			t.AddRow(d.Name, "-")
		} else {
			t.AddRow(d.Name, fmtDur(r.modeled))
		}
	}
	return t
}

func envNames(envs []*Env) []string {
	out := make([]string, len(envs))
	for i, e := range envs {
		out[i] = e.Dataset.Name
	}
	return out
}

// ExtractPattern extracts a connected graph pattern with distinct labels
// from g by a random walk: the walk tree plus every induced edge among the
// chosen nodes, which is what turns tree queries into cyclic kGPM queries.
func ExtractPattern(g *graph.Graph, size int, rng *rand.Rand) *kgpm.Query {
	for attempt := 0; attempt < 100; attempt++ {
		start := int32(rng.Intn(g.NumNodes()))
		chosen := []int32{start}
		used := map[int32]bool{g.Label(start): true}
		usedNode := map[int32]bool{start: true}
		for len(chosen) < size {
			grown := false
			for tries := 0; tries < 30 && !grown; tries++ {
				from := chosen[rng.Intn(len(chosen))]
				// One undirected hop.
				var nbrs []int32
				g.Out(from, func(to, _ int32) bool { nbrs = append(nbrs, to); return true })
				g.In(from, func(fr, _ int32) bool { nbrs = append(nbrs, fr); return true })
				if len(nbrs) == 0 {
					break
				}
				next := nbrs[rng.Intn(len(nbrs))]
				if usedNode[next] || used[g.Label(next)] {
					continue
				}
				chosen = append(chosen, next)
				used[g.Label(next)] = true
				usedNode[next] = true
				grown = true
			}
			if !grown {
				break
			}
		}
		if len(chosen) < size {
			continue
		}
		idx := map[int32]int{}
		q := &kgpm.Query{}
		for i, v := range chosen {
			idx[v] = i
			q.Labels = append(q.Labels, g.LabelName(v))
		}
		seen := map[[2]int]bool{}
		addEdge := func(a, b int) {
			if a == b {
				return
			}
			if a > b {
				a, b = b, a
			}
			if !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				q.Edges = append(q.Edges, [2]int{a, b})
			}
		}
		for _, v := range chosen {
			g.Out(v, func(to, _ int32) bool {
				if j, ok := idx[to]; ok {
					addEdge(idx[v], j)
				}
				return true
			})
		}
		if err := q.Validate(); err != nil {
			continue
		}
		return q
	}
	return nil
}

// Fig9Queries builds the Q1..Q4 pattern suite (growing size, cycles from
// induced edges) over the environment's graph.
func Fig9Queries(e *Env) []*kgpm.Query {
	rng := rand.New(rand.NewSource(e.Dataset.Seed * 31))
	var out []*kgpm.Query
	for _, size := range []int{3, 4, 5, 6} {
		if p := ExtractPattern(e.Graph, size, rng); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// RunFig9K reproduces Figure 9(a): mtree vs mtree+ over k on Q2.
func RunFig9K(e *Env, ks []int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 9(a): kGPM vary k (Q2) on %s", e.Dataset.Name),
		Header: []string{"k", "mtree", "mtree+", "scores agree"},
	}
	queries := Fig9Queries(e)
	if len(queries) < 2 {
		t.AddRow("-", "-", "-", "-")
		return t
	}
	q := queries[1]
	env := kgpm.NewEnv(e.Graph)
	for _, k := range ks {
		base, plus, agree := runFig9Pair(env, q, k)
		t.AddRow(fmt.Sprintf("%d", k), fmtDur(base), fmtDur(plus), agree)
	}
	return t
}

// RunFig9Q reproduces Figure 9(b): mtree vs mtree+ over Q1..Q4, k = 20.
func RunFig9Q(e *Env) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 9(b): kGPM vary query, k=20 on %s", e.Dataset.Name),
		Header: []string{"Query", "nodes", "edges", "mtree", "mtree+", "scores agree"},
	}
	env := kgpm.NewEnv(e.Graph)
	for i, q := range Fig9Queries(e) {
		base, plus, agree := runFig9Pair(env, q, 20)
		t.AddRow(fmt.Sprintf("Q%d", i+1),
			fmt.Sprintf("%d", len(q.Labels)), fmt.Sprintf("%d", len(q.Edges)),
			fmtDur(base), fmtDur(plus), agree)
	}
	return t
}

// runFig9Pair times mtree and then mtree+ on one pattern and reports
// whether their score sequences agree: the two differ only in the tree
// matcher, so a "no" is a bug, not a measurement.
func runFig9Pair(env *kgpm.Env, q *kgpm.Query, k int) (base, plus time.Duration, agree string) {
	t0 := time.Now()
	bm, berr := kgpm.TopK(env, q, k, MTree)
	base = time.Since(t0)
	t0 = time.Now()
	pm, perr := kgpm.TopK(env, q, k, kgpm.MTreePlus)
	plus = time.Since(t0)
	agree = "yes"
	if berr != nil || perr != nil || len(bm) != len(pm) {
		agree = "no"
	} else {
		for i := range bm {
			if bm[i].Score != pm[i].Score {
				agree = "no"
				break
			}
		}
	}
	return base, plus, agree
}

// RunAblationTrigger is ablations A3 and A5: the paper's tight trigger
// (Topk-EN) versus the loose DP-P-style trigger versus this library's
// edge-aware bound extension, measured by entries loaded and time.
func RunAblationTrigger(e *Env, sizes []int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation A3/A5: loading trigger on %s, k=20", e.Dataset.Name),
		Header: []string{"T", "loose time", "tight time", "edge-aware time", "loose entries", "tight entries", "edge-aware entries"},
	}
	bounds := []lazy.Bound{lazy.LooseBound, lazy.TightBound, lazy.EdgeAwareBound}
	for _, size := range sizes {
		qs := e.Queries(size, true)
		if len(qs) == 0 {
			t.AddRow(fmt.Sprintf("T%d", size), "-", "-", "-", "-", "-", "-")
			continue
		}
		times := make([]time.Duration, len(bounds))
		entries := make([]int64, len(bounds))
		for _, q := range qs {
			for bi, bound := range bounds {
				st := e.Store
				st.ResetCounters()
				t0 := time.Now()
				lazy.TopK(st, q, 20, lazy.Options{Bound: bound})
				times[bi] += time.Since(t0)
				entries[bi] += st.Counters().EntriesRead
			}
		}
		n := int64(len(qs))
		row := []string{fmt.Sprintf("T%d", size)}
		for bi := range bounds {
			row = append(row, fmtDur(times[bi]/time.Duration(n)))
		}
		for bi := range bounds {
			row = append(row, fmtCount(entries[bi]/n))
		}
		t.AddRow(row...)
	}
	return t
}

// RunAblationOracle is ablation A4: full closure versus the PLL 2-hop
// index as distance source — build time and index size.
func RunAblationOracle(datasets []Dataset) *Table {
	t := &Table{
		Title:  "Ablation A4: closure vs pruned landmark labeling",
		Header: []string{"Graph", "TC time", "TC entries", "PLL time", "PLL entries", "ratio"},
	}
	for _, d := range datasets {
		g := d.Build()
		t0 := time.Now()
		c := closure.Compute(g, closure.Options{})
		tcTime := time.Since(t0)
		t0 = time.Now()
		idx := pll.Build(g)
		pllTime := time.Since(t0)
		ratio := float64(idx.LabelEntries()) / float64(c.NumEntries())
		t.AddRow(d.Name, fmtDur(tcTime), fmtCount(c.NumEntries()),
			fmtDur(pllTime), fmtCount(idx.LabelEntries()),
			fmt.Sprintf("%.3f", ratio))
	}
	return t
}

// RunAblationLazyQ is ablation A2: Algorithm 1 with the paper's two-level
// Q/Q_l lazy queue versus pushing every candidate straight into Q.
func RunAblationLazyQ(e *Env, ks []int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation A2: lazy Q_l vs push-all on %s, T50", e.Dataset.Name),
		Header: []string{"k", "lazy Q_l", "push-all"},
	}
	qs := e.Queries(50, true)
	for _, k := range ks {
		var tLazy, tAll time.Duration
		for _, q := range qs {
			r := rtg.Build(e.Closure, q)
			t0 := time.Now()
			core.TopKWith(r, k, core.Options{})
			tLazy += time.Since(t0)
			t0 = time.Now()
			core.TopKWith(r, k, core.Options{DisableLazyQueues: true})
			tAll += time.Since(t0)
		}
		if len(qs) == 0 {
			t.AddRow(fmt.Sprintf("%d", k), "-", "-")
			continue
		}
		n := time.Duration(len(qs))
		t.AddRow(fmt.Sprintf("%d", k), fmtDur(tLazy/n), fmtDur(tAll/n))
	}
	return t
}

// SortedSizes returns the standard query-size sweep for a dataset family:
// the paper cannot extract T100 on the real graphs, and neither can the
// citation analog.
func SortedSizes(kind Kind) []int {
	if kind == Citation {
		return []int{10, 30, 50, 70}
	}
	return []int{10, 30, 50, 70, 100}
}
