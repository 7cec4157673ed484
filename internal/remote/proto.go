// Package remote serves top-k queries from worker processes: a worker
// streams its database's canonical match enumeration as binary frames,
// and a coordinator routes each request whole to one worker replica and
// hands that replica's matches on — so a fleet of replicas over one
// snapshot answers byte-identically to a single Database.
//
// Every frame is one kind byte, a uvarint payload length (at most
// MaxFrameBytes), then the payload:
//
//	'h'  the JSON Hello object, the bytes /shard/hello serves:
//	     {"f":"hello","proto":3,"snapshot":"<identity>",
//	      "order":"topk-en-canonical/1","positions":3}
//	'm'  a zigzag-varint score, then exactly positions uvarint bindings
//	'e'  a uvarint match count, then a complete byte (0 or 1)
//	'x'  a UTF-8 error message
//
// The hello frame is the handshake: the snapshot identity and canonical
// order version pin what the worker serves, and positions fixes the
// width of every later match frame. A replica serving another snapshot
// fails at the first frame instead of answering from another graph. The
// /shard/hello probe stays JSON, so a peer speaking another protocol
// version fails the topology check at startup with both versions named.
//
// The decoder is the untrusted half: the coordinator feeds it bytes from
// the network, so it validates structurally (frame kind, length cap,
// required fields, bounds, exact width) and never panics —
// FuzzDecodeFrame pins that.
package remote

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"sync"
	"unicode/utf8"

	"ktpm"
	"ktpm/internal/lazy"
)

const (
	// ProtoVersion is the wire protocol version carried in the handshake;
	// coordinator and worker must agree exactly. Version 3 dropped the
	// shard, worker-count and partitioner fields: a worker serves the
	// whole enumeration.
	ProtoVersion = 3

	// OrderVersion names the canonical result order both sides promise:
	// non-decreasing score, equal scores ordered by node bindings. The
	// coordinator's failover resumes a stream on another replica by
	// position, which is sound only if every replica emits this one
	// order, so the version is part of the handshake.
	OrderVersion = "topk-en-canonical/1"

	// MaxFrameBytes caps one frame's payload. A match frame is bounded by
	// the query's position count, so anything near this size is garbage;
	// the cap keeps a corrupt or hostile worker from ballooning
	// coordinator memory through the decoder.
	MaxFrameBytes = 1 << 20

	// MaxPositions caps the node count a match frame may carry. The
	// server-side query length cap (4096 bytes, two bytes minimum per
	// node) keeps real queries far below it.
	MaxPositions = 4096
)

// Frame kinds, the first byte of every frame.
const (
	KindHello byte = 'h'
	KindMatch byte = 'm'
	KindEnd   byte = 'e'
	KindErr   byte = 'x'
)

// helloTag is the "f" value of a JSON hello, which tells a hello apart
// from the error bodies the same endpoints answer with.
const helloTag = "hello"

// Hello is the handshake, the payload of the first frame of every
// worker stream and the /shard/hello response body (minus Positions).
type Hello struct {
	F        string `json:"f"`
	Proto    int    `json:"proto"`
	Snapshot string `json:"snapshot"`
	Order    string `json:"order"`
	// Positions is the node count of the parsed query: every match frame
	// of the stream must carry exactly this many bindings. Zero in the
	// /shard/hello probe response, which has no query.
	Positions int `json:"positions,omitempty"`
	// Draining marks a worker that has begun a graceful shutdown: it
	// still answers (in-flight streams need it) but asks the coordinator
	// to route to other replicas. Absent on the wire when false; the
	// field is advisory and never validated.
	Draining bool `json:"draining,omitempty"`
}

// Frame is one decoded frame. Kind selects which fields are meaningful:
// Hello for KindHello; Score and Nodes for KindMatch; Count and Complete
// for KindEnd; Error for KindErr.
type Frame struct {
	Kind     byte
	Hello    Hello
	Score    int64
	Nodes    []int32
	Count    int64
	Complete bool
	Error    string
}

func badFrame(format string, args ...any) error {
	return fmt.Errorf("remote: bad frame: "+format, args...)
}

// decodeHello parses and validates a JSON hello. Unknown keys are
// ignored for forward compatibility.
func decodeHello(p []byte) (Hello, error) {
	var h Hello
	if err := json.Unmarshal(p, &h); err != nil {
		return Hello{}, badFrame("hello: %v", err)
	}
	switch {
	case h.F != helloTag:
		return Hello{}, badFrame("hello tagged %q", h.F)
	case h.Proto <= 0:
		return Hello{}, badFrame("hello with proto %d", h.Proto)
	case h.Positions < 0 || h.Positions > MaxPositions:
		return Hello{}, badFrame("hello with %d positions", h.Positions)
	}
	return h, nil
}

// decoder reads the frames of one worker stream.
type decoder struct {
	r         *bufio.Reader
	positions int     // match width, fixed by the stream's hello
	payload   []byte  // the current frame's payload, reused
	slab      []int32 // where the next match's bindings are carved
}

// readers pools the decoders' 32 KiB read buffers across streams. Only
// the buffer is pooled: matches handed on point into the binding slab,
// which stays with its decoder.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}

func newDecoder(r io.Reader) *decoder {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return &decoder{r: br}
}

// release returns the read buffer to the pool; d must not be read
// again.
func (d *decoder) release() {
	d.r.Reset(nil)
	readers.Put(d.r)
	d.r = nil
}

// next decodes the next frame. The end of input at a frame boundary is
// io.EOF; inside a frame it is io.ErrUnexpectedEOF. Any structural
// defect — unknown kind, a payload over the cap, missing or
// out-of-range fields, a match of the wrong width — is an error, and no
// input panics.
func (d *decoder) next() (Frame, error) {
	kind, err := d.r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	switch kind {
	case KindHello, KindMatch, KindEnd, KindErr:
	default:
		return Frame{}, badFrame("unknown kind %q", kind)
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Frame{}, midFrame(err)
	}
	if n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("remote: frame of %d bytes exceeds the %d cap", n, MaxFrameBytes)
	}
	if uint64(cap(d.payload)) < n {
		d.payload = make([]byte, n)
	}
	p := d.payload[:n]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return Frame{}, midFrame(err)
	}
	switch kind {
	case KindHello:
		h, err := decodeHello(p)
		if err != nil {
			return Frame{}, err
		}
		d.positions = h.Positions
		return Frame{Kind: KindHello, Hello: h}, nil
	case KindMatch:
		return d.match(p)
	case KindEnd:
		count, w := binary.Uvarint(p)
		if w <= 0 || count > math.MaxInt64 {
			return Frame{}, badFrame("end without a valid count")
		}
		if len(p) != w+1 || p[w] > 1 {
			return Frame{}, badFrame("end without a complete byte")
		}
		return Frame{Kind: KindEnd, Count: int64(count), Complete: p[w] == 1}, nil
	}
	if len(p) == 0 || !utf8.Valid(p) {
		return Frame{}, badFrame("err frame without a UTF-8 message")
	}
	return Frame{Kind: KindErr, Error: string(p)}, nil
}

// midFrame reports a read error inside a frame: there, the end of input
// means the frame was cut short.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// match decodes a match payload. Bindings are carved from a slab shared
// by one chunk's worth of matches, so a chunk costs one allocation.
func (d *decoder) match(p []byte) (Frame, error) {
	score, w := binary.Varint(p)
	if w <= 0 {
		return Frame{}, badFrame("match without a score")
	}
	p = p[w:]
	if d.positions == 0 {
		return Frame{}, badFrame("match before a hello with positions")
	}
	if len(d.slab) < d.positions {
		d.slab = make([]int32, d.positions*lazy.ChunkSize)
	}
	nodes := d.slab[:d.positions:d.positions]
	for i := range nodes {
		v, w := binary.Uvarint(p)
		if w <= 0 {
			return Frame{}, badFrame("match with %d bindings, want %d", i, d.positions)
		}
		if v > math.MaxInt32 {
			return Frame{}, badFrame("match binds node %d", v)
		}
		nodes[i] = int32(v)
		p = p[w:]
	}
	if len(p) > 0 {
		return Frame{}, badFrame("match with %d bytes past its %d bindings", len(p), d.positions)
	}
	d.slab = d.slab[d.positions:]
	return Frame{Kind: KindMatch, Score: score, Nodes: nodes}, nil
}

// uvarintLen is the encoded size of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendFrame appends f's wire form to b. f.Kind must be one of the four
// frame kinds. A match frame is sized before it is written, so encoding
// one allocates nothing beyond b's growth.
func appendFrame(b []byte, f Frame) []byte {
	var p []byte
	switch f.Kind {
	case KindMatch:
		n := uvarintLen(uint64(f.Score<<1) ^ uint64(f.Score>>63))
		for _, v := range f.Nodes {
			n += uvarintLen(uint64(v))
		}
		b = binary.AppendUvarint(append(b, KindMatch), uint64(n))
		b = binary.AppendVarint(b, f.Score)
		for _, v := range f.Nodes {
			b = binary.AppendUvarint(b, uint64(v))
		}
		return b
	case KindHello:
		h := f.Hello
		h.F = helloTag
		p, _ = json.Marshal(h) // a struct of strings, ints and bools always marshals
	case KindEnd:
		complete := byte(0)
		if f.Complete {
			complete = 1
		}
		p = append(binary.AppendUvarint(nil, uint64(f.Count)), complete)
	case KindErr:
		p = []byte(f.Error)
	default:
		panic(fmt.Sprintf("remote: cannot encode frame kind %q", f.Kind))
	}
	b = binary.AppendUvarint(append(b, f.Kind), uint64(len(p)))
	return append(b, p...)
}

// Identity fingerprints what a database serves: the full data graph (text
// encoding) plus the closure's entry/table counts and size. Workers and
// coordinator exchange it in the handshake so a fleet mixing snapshot
// generations fails fast instead of answering from different worlds. O(nodes+edges) once at startup.
func Identity(db *ktpm.Database) string {
	h := fnv.New64a()
	_ = ktpm.SaveGraph(h, db.Graph())
	entries, tables, theta, size := db.ClosureStats()
	fmt.Fprintf(h, "|%d|%d|%g|%d", entries, tables, theta, size)
	return fmt.Sprintf("%016x", h.Sum64())
}
