package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// decodeAll decodes frames from b until the first error, which it
// returns with the frames accepted before it.
func decodeAll(b []byte) ([]Frame, error) {
	dec := newDecoder(bytes.NewReader(b))
	var out []Frame
	for {
		f, err := dec.next()
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// FuzzDecodeFrame pins the untrusted stream decoder's contract: no input
// panics, and the frames it accepts round-trip — re-encoded as one
// stream and decoded again, they come back structurally identical and
// the stream ends cleanly — so worker and coordinator agree on what a
// frame means. Seeds cover every frame kind plus the malformed shapes
// the validation rejects; the committed corpus under testdata/fuzz
// extends them.
func FuzzDecodeFrame(f *testing.F) {
	hello := func(positions int) []byte {
		return appendFrame(nil, Frame{Kind: KindHello, Hello: Hello{
			Proto: ProtoVersion, Shard: 0, Workers: 4, Partitioner: "hash",
			Snapshot: "00deadbeef", Order: OrderVersion, Positions: positions,
		}})
	}
	frame := func(kind byte, payload ...byte) []byte {
		return append(binary.AppendUvarint([]byte{kind}, uint64(len(payload))), payload...)
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	match := func(score int64, nodes ...int32) []byte {
		return appendFrame(nil, Frame{Kind: KindMatch, Score: score, Nodes: nodes})
	}
	seeds := [][]byte{
		hello(3),
		cat(hello(3), match(12, 3, 4, 5), appendFrame(nil, Frame{Kind: KindEnd, Count: 42, Complete: true})),
		cat(hello(1), match(-7, 0), appendFrame(nil, Frame{Kind: KindEnd})),
		cat(hello(2), appendFrame(nil, Frame{Kind: KindErr, Error: "worker on fire"})),
		frame(KindHello, []byte(`{"f":"hello","proto":1,"shard":3,"workers":4}`)...),
		frame(KindHello, []byte(`{"f":"hello","proto":0,"shard":-1,"workers":0}`)...),
		frame(KindHello, []byte(`{"f":"m","s":12,"n":[3,4,5]}`)...),
		frame(KindMatch, 0x18, 3),                      // match before any hello
		cat(hello(2), frame(KindMatch, 0x02, 5)),       // one binding of two
		cat(hello(2), frame(KindMatch, 0x02, 1, 2, 3)), // a byte past the width
		// A binding of MaxInt32, then one of MaxInt32+1.
		cat(hello(1), match(1, 1<<31-1), frame(KindMatch, 0x02, 0x80, 0x80, 0x80, 0x80, 0x08)),
		cat(hello(1), frame(KindMatch)), // no score
		frame(KindEnd, 42),              // no complete byte
		frame(KindEnd, 0, 2),            // complete byte out of range
		frame(KindErr),                  // no message
		frame(KindErr, 0xff, 0xfe),      // not UTF-8
		binary.AppendUvarint([]byte{KindMatch}, MaxFrameBytes+1),
		cat(hello(2), []byte{KindMatch, 5, 0x02, 0x01}), // payload cut short
		[]byte(`{"f":"m","s":12,"n":[3,4,5]}` + "\n"),   // a protocol-1 line
		{'z', 0},
		{},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		frames, err := decodeAll(stream)
		if err == nil {
			t.Fatal("decoding ended without an error")
		}
		var enc []byte
		for _, fr := range frames {
			enc = appendFrame(enc, fr)
		}
		again, err := decodeAll(enc)
		if err != io.EOF {
			t.Fatalf("re-encoded frames failed to decode: %v\nencoded: %q", err, enc)
		}
		// Nodes nil-vs-empty never survives the accept path (a match needs
		// a hello with positions > 0), so DeepEqual is exact.
		if !reflect.DeepEqual(frames, again) {
			t.Fatalf("round trip changed the frames:\n first: %+v\nsecond: %+v\nencoded: %q", frames, again, enc)
		}
	})
}
