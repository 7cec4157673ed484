package query

import (
	"math/rand"
	"testing"

	"ktpm/internal/label"
)

func TestParseSimple(t *testing.T) {
	in := label.NewInterner()
	tr, err := Parse(in, "a(b,c(d,e))")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", tr.NumNodes())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !tr.DistinctLabels() {
		t.Fatal("want distinct labels")
	}
	// BFS order: a, b, c, d, e
	want := []string{"a", "b", "c", "d", "e"}
	for i, w := range want {
		if tr.LabelName(int32(i)) != w {
			t.Fatalf("node %d label %q, want %q", i, tr.LabelName(int32(i)), w)
		}
	}
}

func TestBFSOrderDeepTree(t *testing.T) {
	in := label.NewInterner()
	// Depth-first insertion order must still come out BFS.
	tr := MustParse(in, "a(b(d(h),e),c(f,g))")
	wantDepths := []int32{0, 1, 1, 2, 2, 2, 2, 3}
	wantLabels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range wantDepths {
		if tr.Nodes[i].Depth != wantDepths[i] {
			t.Fatalf("node %d depth %d, want %d", i, tr.Nodes[i].Depth, wantDepths[i])
		}
		if tr.LabelName(int32(i)) != wantLabels[i] {
			t.Fatalf("node %d label %s, want %s", i, tr.LabelName(int32(i)), wantLabels[i])
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLemma31ParentBeforeChild(t *testing.T) {
	in := label.NewInterner()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		b := NewBuilder(in)
		handles := []int32{b.Root("r")}
		for i := 0; i < 30; i++ {
			p := handles[rng.Intn(len(handles))]
			handles = append(handles, b.AddChild(p, labelName(i), Descendant))
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < tr.NumNodes(); i++ {
			if tr.Nodes[i].Parent >= int32(i) {
				t.Fatalf("Lemma 3.1 violated: node %d parent %d", i, tr.Nodes[i].Parent)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func labelName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestEdgeKinds(t *testing.T) {
	in := label.NewInterner()
	tr := MustParse(in, "a(/b,c(/d))")
	if tr.Nodes[1].EdgeFromParent != Child {
		t.Fatalf("edge to b = %v, want /", tr.Nodes[1].EdgeFromParent)
	}
	if tr.Nodes[2].EdgeFromParent != Descendant {
		t.Fatalf("edge to c = %v, want //", tr.Nodes[2].EdgeFromParent)
	}
	// d is node 3 in BFS
	if tr.LabelName(3) != "d" || tr.Nodes[3].EdgeFromParent != Child {
		t.Fatalf("edge to d wrong: %s %v", tr.LabelName(3), tr.Nodes[3].EdgeFromParent)
	}
}

func TestWildcard(t *testing.T) {
	in := label.NewInterner()
	tr := MustParse(in, "a(*,b)")
	if tr.DistinctLabels() {
		t.Fatal("wildcard tree must not report distinct labels")
	}
	if tr.Nodes[1].Label != label.Wildcard {
		t.Fatalf("node 1 label = %d", tr.Nodes[1].Label)
	}
}

func TestDuplicateLabelsDetected(t *testing.T) {
	in := label.NewInterner()
	tr := MustParse(in, "a(b,b)")
	if tr.DistinctLabels() {
		t.Fatal("duplicate labels not detected")
	}
}

func TestSubtreeSizes(t *testing.T) {
	in := label.NewInterner()
	tr := MustParse(in, "a(b(d,e),c)")
	wantSizes := map[string]int32{"a": 5, "b": 3, "c": 1, "d": 1, "e": 1}
	for i := range tr.Nodes {
		if got := tr.Nodes[i].SubtreeSize; got != wantSizes[tr.LabelName(int32(i))] {
			t.Fatalf("subtree size of %s = %d", tr.LabelName(int32(i)), got)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	in := label.NewInterner()
	if d := MustParse(in, "a(b,c,d)").MaxDegree(); d != 3 {
		t.Fatalf("star degree = %d, want 3", d)
	}
	if d := Chain(in, "p", "q", "r").MaxDegree(); d != 2 {
		t.Fatalf("chain degree = %d, want 2", d)
	}
	if d := MustParse(in, "z").MaxDegree(); d != 0 {
		t.Fatalf("singleton degree = %d, want 0", d)
	}
}

func TestStringRoundTrip(t *testing.T) {
	in := label.NewInterner()
	for _, s := range []string{
		"a",
		"a(b,c)",
		"a(/b,c(d,/e))",
		"a(*,b(*))",
		"root(x1(y-1,y.2),x2)",
	} {
		tr := MustParse(in, s)
		tr2 := MustParse(in, tr.String())
		if tr2.String() != tr.String() {
			t.Fatalf("round trip %q -> %q -> %q", s, tr.String(), tr2.String())
		}
		if tr2.NumNodes() != tr.NumNodes() {
			t.Fatalf("round trip changed size for %q", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	in := label.NewInterner()
	for _, s := range []string{
		"", "(", "a(", "a(b", "a(b,,c)", "a)b", "a(b)c", "a(b;c)",
	} {
		if _, err := Parse(in, s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestChainAndStar(t *testing.T) {
	in := label.NewInterner()
	c := Chain(in, "a", "b", "c")
	if c.NumNodes() != 3 || len(c.Nodes[0].Children) != 1 {
		t.Fatalf("Chain shape wrong: %s", c)
	}
	s := Star(in, "r", "x", "y", "z")
	if s.NumNodes() != 4 || len(s.Nodes[0].Children) != 3 {
		t.Fatalf("Star shape wrong: %s", s)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	in := label.NewInterner()
	tr := MustParse(in, "a(b,c)")
	// Break the parent order.
	tr.Nodes[1].Parent = 2
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted parent order")
	}
}

func TestDisconnectedBuilderRejected(t *testing.T) {
	// Direct Tree construction that skips Builder must be caught by
	// Validate; the Builder itself cannot produce disconnection, so
	// simulate via a hand-made tree.
	in := label.NewInterner()
	tr := &Tree{Labels: in, Nodes: []Node{
		{Label: int32(in.Intern("a")), Parent: -1, SubtreeSize: 1},
		{Label: int32(in.Intern("b")), Parent: 5, SubtreeSize: 1},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted invalid parent index")
	}
}
