package store

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/label"
)

// closureOf computes the full closure of g.
func closureOf(t *testing.T, g *graph.Graph) *closure.Closure {
	t.Helper()
	return closure.Compute(g, closure.Options{})
}

func TestFilterDistGE(t *testing.T) {
	cases := []struct {
		dist []int32
		thr  int32
		want int
	}{
		{nil, 5, 0},
		{[]int32{1, 2, 3}, 0, 0},
		{[]int32{1, 2, 3}, 2, 1},
		{[]int32{1, 2, 3}, 3, 2},
		{[]int32{1, 2, 3}, 4, 3},
		{[]int32{2, 2, 2}, 2, 0},
		{[]int32{1, 1, 5, 5}, 5, 2},
	}
	for _, tc := range cases {
		if got := FilterDistGE(tc.dist, tc.thr); got != tc.want {
			t.Errorf("FilterDistGE(%v, %d) = %d, want %d", tc.dist, tc.thr, got, tc.want)
		}
	}
}

func TestFirstTrue(t *testing.T) {
	if got := firstTrue(nil); got != -1 {
		t.Errorf("firstTrue(nil) = %d, want -1", got)
	}
	if got := firstTrue([]bool{false, false, true, true}); got != 2 {
		t.Errorf("firstTrue = %d, want 2", got)
	}
	if got := firstTrue([]bool{false, false}); got != -1 {
		t.Errorf("firstTrue = %d, want -1", got)
	}
}

// drainList pulls every block of (alpha, v) through a fresh handle,
// concatenated in order.
func drainList(s *Store, alpha, v int32) []InEdge {
	lh := s.OpenList(alpha, v)
	var all []InEdge
	for i := 0; ; i++ {
		blk, last := lh.Block(i)
		all = append(all, blk...)
		if last {
			return all
		}
	}
}

// refList computes L^alpha_v independently of the store: the (alpha,
// l(v)) table rows with To == v, flagged direct when the graph has that
// edge at that weight, sorted by (Dist, From); the wildcard concatenates
// every source label's rows before sorting.
func refList(src closure.TableSource, alpha, v int32) []InEdge {
	g := src.Graph()
	alphas := []int32{alpha}
	if alpha == label.Wildcard {
		alphas = alphas[:0]
		for a := int32(0); int(a) < g.NumLabels(); a++ {
			alphas = append(alphas, a)
		}
	}
	var out []InEdge
	for _, a := range alphas {
		for _, e := range src.Table(a, g.Label(v)) {
			if e.To != v {
				continue
			}
			direct := false
			g.Out(e.From, func(to, w int32) bool {
				direct = direct || (to == v && w == e.Dist)
				return true
			})
			out = append(out, InEdge{From: e.From, Dist: e.Dist, Direct: direct})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].From < out[j].From
	})
	return out
}

// refD and refE compute the D/E summaries from reference lists alone.
func refD(src closure.TableSource, alpha, beta int32, childOnly bool) []DEntry {
	var out []DEntry
	g := src.Graph()
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if g.Label(v) != beta {
			continue
		}
		for _, e := range refList(src, alpha, v) {
			if !childOnly || e.Direct {
				out = append(out, DEntry{V: v, Min: e.Dist})
				break
			}
		}
	}
	return out
}

func refE(src closure.TableSource, alpha, beta int32, childOnly bool) []EEntry {
	g := src.Graph()
	best := make(map[int32]EEntry)
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if g.Label(v) != beta {
			continue
		}
		for _, e := range refList(src, alpha, v) {
			if childOnly && !e.Direct {
				continue
			}
			if cur, ok := best[e.From]; !ok || e.Dist < cur.Dist {
				best[e.From] = EEntry{From: e.From, To: v, Dist: e.Dist, Direct: e.Direct}
			}
		}
	}
	out := make([]EEntry, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// TestCarveMatchesSourceRows checks the carved image against lists, block
// boundaries and D/E summaries computed in the test from the source's
// rows and the graph's direct edges, for every kind of source the store
// is built over: an in-memory closure and a merged overlay (both carved
// through the transpose) and a snapshot read lazily and through mmap.
func TestCarveMatchesSourceRows(t *testing.T) {
	// Weighted, so some direct edges are longer than the shortest path
	// between their endpoints and must not be flagged direct.
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 48, AvgOutDegree: 4, Labels: 5, Window: 24, Communities: 2, MaxWeight: 6, Seed: 9})
	c := closureOf(t, g)

	// A merged source whose overlay is not empty: the closure of g minus
	// every ninth edge, with those edges ingested back.
	var held []graph.Edge
	b := graph.NewBuilderWithLabels(g.Labels)
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		b.AddNodeLabelID(g.Label(v))
	}
	n := 0
	g.Edges(func(e graph.Edge) bool {
		if n++; n%9 == 0 {
			held = append(held, e)
		} else {
			b.AddWeightedEdge(e.From, e.To, e.Weight)
		}
		return true
	})
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	combined, err := closure.CombineGraph(base, held)
	if err != nil {
		t.Fatal(err)
	}
	delta := closure.NewDelta()
	delta.AddEdges(combined, held)
	if delta.Entries() == 0 {
		t.Fatal("overlay is empty; the merged source would be the base")
	}
	merged := closure.NewMergedSource(combined, closureOf(t, base), delta)

	sources := map[string]closure.TableSource{"closure": c, "merged": merged}
	path := filepath.Join(t.TempDir(), "c.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := closure.WriteSnapshot(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []closure.SnapMode{closure.SnapLazy, closure.SnapMMap} {
		snap, err := closure.OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		sources["snapshot/"+mode.String()] = snap
	}

	for name, src := range sources {
		for _, blockSize := range []int{1, 3, DefaultBlockSize} {
			checkCarve(t, name, src, NewFromSource(src, blockSize), blockSize)
		}
	}
	// Eager construction is the same image.
	checkCarve(t, "closure/eager", c, New(c, 3), 3)
}

func checkCarve(t *testing.T, name string, src closure.TableSource, s *Store, blockSize int) {
	t.Helper()
	g := src.Graph()
	alphas := []int32{label.Wildcard}
	for a := int32(0); int(a) < g.NumLabels(); a++ {
		alphas = append(alphas, a)
	}
	for _, alpha := range alphas {
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			want := refList(src, alpha, v)
			lh := s.OpenList(alpha, v)
			wantBlocks := (len(want) + blockSize - 1) / blockSize
			if lh.Len() != len(want) || lh.NumBlocks() != wantBlocks || s.NumBlocks(alpha, v) != wantBlocks {
				t.Fatalf("%s bs=%d list (%d,%d): len/blocks %d/%d, want %d/%d", name, blockSize, alpha, v, lh.Len(), lh.NumBlocks(), len(want), wantBlocks)
			}
			// Row view and column view, block by block: each block is
			// the next blockSize reference entries and only the final
			// one reports last.
			for i := 0; i < max(wantBlocks, 1); i++ {
				lo, hi := min(i*blockSize, len(want)), min((i+1)*blockSize, len(want))
				blk, last := lh.Block(i)
				bc, lastCols := lh.BlockCols(i)
				if wantLast := hi == len(want); last != wantLast || lastCols != wantLast {
					t.Fatalf("%s bs=%d list (%d,%d) block %d: last %v/%v, want %v", name, blockSize, alpha, v, i, last, lastCols, wantLast)
				}
				var lanes []InEdge
				for j := range bc.From {
					lanes = append(lanes, InEdge{From: bc.From[j], Dist: bc.Dist[j], Direct: bc.Direct[j]})
				}
				if !slices.Equal(blk, want[lo:hi]) || !slices.Equal(lanes, want[lo:hi]) {
					t.Fatalf("%s bs=%d list (%d,%d) block %d: rows %v, columns %v, want %v", name, blockSize, alpha, v, i, blk, lanes, want[lo:hi])
				}
			}
		}
		for beta := int32(0); int(beta) < g.NumLabels(); beta++ {
			for _, childOnly := range []bool{false, true} {
				if got, want := s.LoadD(alpha, beta, childOnly), refD(src, alpha, beta, childOnly); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s bs=%d LoadD(%d,%d,%v): %v, want %v", name, blockSize, alpha, beta, childOnly, got, want)
				}
				if got, want := s.LoadE(alpha, beta, childOnly), refE(src, alpha, beta, childOnly); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s bs=%d LoadE(%d,%d,%v): %v, want %v", name, blockSize, alpha, beta, childOnly, got, want)
				}
			}
		}
	}
}

// TestWildcardMergeShared pins that the galloping wildcard merge
// publishes into the shared plane: the second resolution of the same
// merged list returns the identical backing columns, and replicas share
// them too.
func TestWildcardMergeShared(t *testing.T) {
	g := gen.ErdosRenyi(30, 120, 4, 9)
	c := closureOf(t, g)
	s := New(c, 4)
	var v int32 = -1
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if len(drainList(s, label.Wildcard, u)) > 1 {
			v = u
			break
		}
	}
	if v < 0 {
		t.Skip("no node with a multi-entry wildcard list")
	}
	a := s.inList(label.Wildcard, v, nil)
	b := s.inList(label.Wildcard, v, nil)
	if len(a.From) == 0 || &a.From[0] != &b.From[0] {
		t.Fatal("second wildcard resolution did not share the merged columns")
	}
	rc := s.Replica().inList(label.Wildcard, v, nil)
	if &rc.From[0] != &a.From[0] {
		t.Fatal("replica did not share the merged columns")
	}
}

// TestOpenListResolvesOnce pins the satellite fix for the double table
// resolution in inList: a handle covering a multi-block list costs the
// same number of table reads as a single block load used to, and block
// reads are counted per block served, not per probe.
func TestOpenListResolvesOnce(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 1) // one entry per block: the a->d4 list has 2 blocks
	a, d := lbl(g, "a"), int32(4)
	s.ResetCounters()
	lh := s.OpenList(a, d)
	if lh.Len() != 2 || lh.NumBlocks() != 2 {
		t.Fatalf("handle len/blocks = %d/%d, want 2/2", lh.Len(), lh.NumBlocks())
	}
	if _, last := lh.Block(0); last {
		t.Fatal("block 0 reported last of 2")
	}
	if _, last := lh.Block(1); !last {
		t.Fatal("block 1 not last")
	}
	cnt := s.Counters()
	if cnt.BlocksRead != 2 || cnt.EntriesRead != 2 {
		t.Fatalf("counters after handle drain = %+v, want 2 blocks / 2 entries", cnt)
	}
}
