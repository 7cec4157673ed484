package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"ktpm"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// reqKind names the endpoint a request goes to.
type reqKind int

const (
	kindQuery reqKind = iota
	kindStream
	kindBatch
)

func (k reqKind) String() string { return [...]string{"query", "stream", "batch"}[k] }

// batchItem is one query of a /batch request.
type batchItem struct {
	Q string `json:"q"`
	K int    `json:"k"`
}

// request is one generated HTTP request. Every query string is sent in
// canonical form, so position numbering in the reply is the numbering
// ParseQuery gives the same string in this process.
type request struct {
	kind  reqKind
	q     string      // query and stream
	k     int         // k for /query, max for /stream
	items []batchItem // batch
	path  string      // request target, query string included
	body  []byte      // POST body (batch)
	raw   []byte      // the request as it goes on the socket
}

// newRequest fills in the bytes that go on the socket.
func newRequest(kind reqKind, path string, body []byte) request {
	var b bytes.Buffer
	if body == nil {
		fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: ktpmd\r\n\r\n", path)
	} else {
		fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: ktpmd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
		b.Write(body)
	}
	return request{kind: kind, path: path, body: body, raw: b.Bytes()}
}

func queryRequest(q string, k int) request {
	r := newRequest(kindQuery, "/query?q="+url.QueryEscape(q)+"&k="+strconv.Itoa(k), nil)
	r.q, r.k = q, k
	return r
}

func streamRequest(q string, max int) request {
	r := newRequest(kindStream, "/stream?q="+url.QueryEscape(q)+"&max="+strconv.Itoa(max), nil)
	r.q, r.k = q, max
	return r
}

func batchRequest(items []batchItem) request {
	body, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	r := newRequest(kindBatch, "/batch", body)
	r.items = items
	return r
}

// ingestBatch is one POST /ingest body of the write workload.
type ingestBatch struct {
	edges []ktpm.IngestEdge
	body  []byte
}

// inputs is everything one workload sends.
type inputs struct {
	graphText []byte       // the graph the daemon serves, text format
	g         *graph.Graph // the same graph, for query extraction
	prelude   []request    // sent once before warm-up, see warmTables and hotSeq
	seq       []request    // warm-up and the paced slices walk this, cycled
	closedSeq []request    // the closed-loop slices walk this, cycled
	batches   []ingestBatch
	sha       string // sha256 over all of the above
}

// sizes are the node counts of the three graphs and the key counts of
// the read sequences. The full key counts are set against the daemon's
// 1024-entry result cache: 4000 and 1200 are above it, 256 is below.
type sizes struct {
	gs, gd, ingest                  int
	uncachedKeys, hotKeys, deepPool int
}

var (
	fullSizes  = sizes{gs: 3000, gd: 3000, ingest: 800, uncachedKeys: 4000, hotKeys: 256, deepPool: 1200}
	smokeSizes = sizes{gs: 200, gd: 200, ingest: 200, uncachedKeys: 800, hotKeys: 64, deepPool: 80}
)

// deepK is the k of deep_sharded's /query and the max of its /stream.
const deepK = 1000

// The datasets and the query populations are pinned, like the GS and GD
// datasets of internal/bench whose generator settings they share: the
// run's seed decides the order requests arrive in, which keys are
// popular and which edges are written when, but every seed draws from
// the same population. A run sees a few thousand requests, and a
// population redrawn per seed moved the median in-process query cost by
// 20% between seeds, which is more than the changes the benchmark is
// meant to resolve.
const (
	gsSeed, gdSeed, ingestSeed = 23, 13, 21
	populationSeed             = 7
)

func powerLaw(nodes int, seed int64) *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{
		Nodes: nodes, AvgOutDegree: 5, Labels: 150, Window: 50, Communities: 10, Seed: seed,
	})
}

func citation(nodes int) *graph.Graph {
	return gen.Citation(gen.CitationConfig{
		Nodes: nodes, AvgOutDegree: 3, Venues: 100, ZipfS: 1.2, Window: 50, Communities: 8, Seed: gdSeed,
	})
}

func encodeGraph(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		panic(err) // bytes.Buffer writes do not fail
	}
	return buf.Bytes()
}

// queryPool extracts want distinct queries of sizes T6..T14 with distinct
// labels from g, in canonical form. It returns fewer when the graph
// cannot supply that many.
func queryPool(g *graph.Graph, want int) []string {
	seen := map[string]bool{}
	var out []string
	for round := 0; round < 40 && len(out) < want; round++ {
		for size := 6; size <= 14 && len(out) < want; size++ {
			trees, err := gen.QuerySet(g, 32, size, true, populationSeed+int64(round)*1_000_003+int64(size)*101)
			if err != nil {
				continue
			}
			for _, t := range trees {
				c := t.Canonical()
				if !seen[c] && len(out) < want {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// shuffled returns xs in the order the seed gives.
func shuffled[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmTables is a prelude that sends every query of the pool once at
// k=9, a k no sequence uses: the daemon materializes each closure table a
// query needs the first time it is touched, whatever the k, so after the
// prelude the measured phases see the steady state and not a mix of first
// touches that thins out as the run goes on.
func warmTables(pool []string) []request {
	out := make([]request, len(pool))
	for i, q := range pool {
		out[i] = queryRequest(q, 9)
	}
	return out
}

// The paced and the closed-loop slices of a run walk separate sequences
// over disjoint keys. Were they to share one, how far a closed-loop slice
// gets, which is a matter of timing, would decide which requests the next
// paced slice measures; and a key one of them had just used would be a
// cache hit for the other. Each sequence alone holds more distinct keys
// than the cache, so cycling it never hits.

// uncachedSeq is what query_uncached and dist_gather send: nKeys distinct
// (query, k) pairs with k uniform in 10..100, in the order the seed gives,
// the first 60% of them paced and the rest closed loop.
func uncachedSeq(g *graph.Graph, nKeys int, seed int64) (prelude, seq, closedSeq []request, err error) {
	pool := queryPool(g, nKeys/8)
	if len(pool)*91 < nKeys {
		return nil, nil, nil, fmt.Errorf("only %d distinct queries, cannot form %d keys", len(pool), nKeys)
	}
	rng := rand.New(rand.NewSource(populationSeed))
	type key struct{ q, k int }
	seen := map[key]bool{}
	var keys []request
	for len(keys) < nKeys {
		kk := key{rng.Intn(len(pool)), 10 + rng.Intn(91)}
		if seen[kk] {
			continue
		}
		seen[kk] = true
		keys = append(keys, queryRequest(pool[kk.q], kk.k))
	}
	// The split is made before the shuffle, so both halves hold the same
	// keys whatever the seed.
	cut := nKeys * 6 / 10
	return warmTables(pool), shuffled(keys[:cut], seed), shuffled(keys[cut:], seed), nil
}

// hotSeq is query_hot: nKeys queries at k=20, each once in the prelude
// so the cache holds the whole set, then Zipf(1.1) draws over them. The
// seed decides which query has which rank, and the draws. Every request
// is a hit, so the paced and the closed-loop slices can share the draws.
func hotSeq(g *graph.Graph, nKeys, draws int, seed int64) (prelude, seq []request, err error) {
	pool := queryPool(g, nKeys)
	if len(pool) < nKeys {
		return nil, nil, fmt.Errorf("only %d distinct queries, want %d", len(pool), nKeys)
	}
	for _, q := range shuffled(pool, seed) {
		prelude = append(prelude, queryRequest(q, 20))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x407))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nKeys-1))
	for i := 0; i < draws; i++ {
		seq = append(seq, prelude[zipf.Uint64()])
	}
	return prelude, seq, nil
}

// deepSeq is deep_sharded: per ten requests five /query at k=deepK,
// three /stream to max=deepK and two /batch of sixteen items (eight
// distinct queries, each twice, k=100), over half the pool each for the
// paced and the closed-loop slices. A half is larger than what a run
// sends of it between two uses of a key, so no key comes back while the
// cache still holds it.
func deepSeq(g *graph.Graph, poolSize, blocks int, seed int64) (prelude, seq, closedSeq []request, err error) {
	pool := queryPool(g, poolSize)
	if len(pool) < poolSize {
		return nil, nil, nil, fmt.Errorf("only %d distinct queries, want %d", len(pool), poolSize)
	}
	half := len(pool) / 2
	// The paced slices of a run send about 260 /query requests, k=1000
	// queries differ tenfold in cost, and query_p50_ms is their median:
	// they are drawn from a quarter of the pool, so that a run measures
	// nearly all of one population and not a seventh of a larger one.
	seq = deepBlocks(pool[:half], half/2, blocks, seed)
	closedSeq = deepBlocks(pool[half:], half, blocks, seed)
	return warmTables(pool), seq, closedSeq, nil
}

// deepBlocks lays out blocks of ten requests over pool in seeded order;
// the /query requests walk its first nQuery queries only.
func deepBlocks(pool []string, nQuery, blocks int, seed int64) []request {
	queries := shuffled(pool[:nQuery], seed)
	pool = shuffled(pool, seed)
	var seq []request
	qi, si, bi := 0, 0, len(pool)/2
	next := func(from []string, c *int) string {
		q := from[*c%len(from)]
		*c++
		return q
	}
	for b := 0; b < blocks; b++ {
		for _, kind := range "QSQBQSQSQB" {
			switch kind {
			case 'Q':
				seq = append(seq, queryRequest(next(queries, &qi), deepK))
			case 'S':
				seq = append(seq, streamRequest(next(pool, &si), deepK))
			case 'B':
				items := make([]batchItem, 0, 16)
				for i := 0; i < 8; i++ {
					items = append(items, batchItem{Q: next(pool, &bi), K: 100})
				}
				items = append(items, items...)
				seq = append(seq, batchRequest(items))
			}
		}
	}
	return seq
}

// ingestInputs is ingest_mixed: the power-law graph with a fixed 15% of
// its edges held out. The daemon boots on the rest; the held-out edges
// come back in the order the seed gives as batches of four, beside k=20
// reads that walk, in seeded order, a pool extracted from the boot graph.
func ingestInputs(nodes int, seed int64) (*inputs, error) {
	full := powerLaw(nodes, ingestSeed)
	var edges []graph.Edge
	full.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	edges = shuffled(edges, populationSeed)
	held := shuffled(edges[:len(edges)*15/100], seed)
	kept := edges[len(held):]

	b := graph.NewBuilder()
	for v := int32(0); v < int32(full.NumNodes()); v++ {
		b.AddNode(full.LabelName(v))
	}
	for _, e := range kept {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	base, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ingest base graph: %w", err)
	}

	in := &inputs{g: base, graphText: encodeGraph(base)}
	for i := 0; i+4 <= len(held); i += 4 {
		var ib ingestBatch
		for _, e := range held[i : i+4] {
			ib.edges = append(ib.edges, ktpm.IngestEdge{From: e.From, To: e.To, Weight: e.Weight})
		}
		if ib.body, err = json.Marshal(map[string]any{"edges": ib.edges}); err != nil {
			return nil, err
		}
		in.batches = append(in.batches, ib)
	}
	pool := queryPool(base, 200)
	if len(pool) < 50 {
		return nil, fmt.Errorf("ingest read pool: only %d queries", len(pool))
	}
	for _, q := range shuffled(pool, seed) {
		in.seq = append(in.seq, queryRequest(q, 20))
	}
	return in, nil
}

// makeInputs generates the inputs of one workload from the seed.
func makeInputs(w *workload, seed int64, sz sizes) (*inputs, error) {
	var in *inputs
	var err error
	switch w.name {
	case "query_uncached", "dist_gather":
		in = &inputs{g: powerLaw(sz.gs, gsSeed)}
		in.prelude, in.seq, in.closedSeq, err = uncachedSeq(in.g, sz.uncachedKeys, seed)
	case "query_hot":
		in = &inputs{g: powerLaw(sz.gs, gsSeed)}
		in.prelude, in.seq, err = hotSeq(in.g, sz.hotKeys, 16384, seed)
		in.closedSeq = in.seq
	case "deep_sharded":
		in = &inputs{g: citation(sz.gd)}
		in.prelude, in.seq, in.closedSeq, err = deepSeq(in.g, sz.deepPool, 120, seed)
	case "ingest_mixed":
		in, err = ingestInputs(sz.ingest, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	if in.graphText == nil {
		in.graphText = encodeGraph(in.g)
	}
	h := sha256.New()
	h.Write(in.graphText)
	for _, rs := range [][]request{in.prelude, in.seq, in.closedSeq} {
		for _, r := range rs {
			fmt.Fprintf(h, "%s\n%s\n", r.path, r.body)
		}
	}
	for _, b := range in.batches {
		h.Write(b.body)
	}
	in.sha = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// writeGraph stores the graph text where the programs can read it.
func (in *inputs) writeGraph(dir, name string) (string, error) {
	p := filepath.Join(dir, name)
	return p, os.WriteFile(p, in.graphText, 0o644)
}
