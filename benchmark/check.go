package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ktpm"
)

// sampleEvery is the answer-check rate: one reply in this many.
const sampleEvery = 50

// sampler picks, from the seed alone, which sequence positions have
// their replies kept and checked.
func sampler(seed int64) func(idx int) bool {
	return func(idx int) bool {
		// splitmix64 of (seed, idx): a fixed, well-mixed choice.
		x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x%sampleEvery == 0
	}
}

// matchJSON is a match as every endpoint spells it.
type matchJSON struct {
	Score int64   `json:"score"`
	Nodes []int32 `json:"nodes"`
}

// oracle answers requests in this process, from the same closure the
// daemon serves, with the plain unsharded Database.TopK that every other
// path promises to equal.
type oracle struct{ db *ktpm.Database }

func (o oracle) topK(q string, k int) ([]matchJSON, error) {
	pq, err := o.db.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	ms, err := o.db.TopK(pq, k)
	if err != nil {
		return nil, err
	}
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{Score: m.Score, Nodes: m.Nodes}
	}
	return out, nil
}

func sameMatches(got, want []matchJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			return fmt.Errorf("match %d: score %d, want %d", i, got[i].Score, want[i].Score)
		}
		if len(got[i].Nodes) != len(want[i].Nodes) {
			return fmt.Errorf("match %d: %d nodes, want %d", i, len(got[i].Nodes), len(want[i].Nodes))
		}
		for j := range got[i].Nodes {
			if got[i].Nodes[j] != want[i].Nodes[j] {
				return fmt.Errorf("match %d position %d: node %d, want %d", i, j, got[i].Nodes[j], want[i].Nodes[j])
			}
		}
	}
	return nil
}

// check compares one kept reply with the oracle's answer: scores and node
// bindings, match for match.
func (o oracle) check(r *request, body []byte) error {
	switch r.kind {
	case kindQuery:
		var resp struct {
			Matches []matchJSON `json:"matches"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		want, err := o.topK(r.q, r.k)
		if err != nil {
			return err
		}
		if err := sameMatches(resp.Matches, want); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
	case kindBatch:
		var resp struct {
			Items []struct {
				Matches []matchJSON `json:"matches"`
				Error   string      `json:"error"`
			} `json:"items"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("/batch: %w", err)
		}
		if len(resp.Items) != len(r.items) {
			return fmt.Errorf("/batch: %d items, want %d", len(resp.Items), len(r.items))
		}
		for i, it := range r.items {
			if resp.Items[i].Error != "" {
				return fmt.Errorf("/batch item %d: %s", i, resp.Items[i].Error)
			}
			want, err := o.topK(it.Q, it.K)
			if err != nil {
				return err
			}
			if err := sameMatches(resp.Items[i].Matches, want); err != nil {
				return fmt.Errorf("/batch item %d (%s): %w", i, it.Q, err)
			}
		}
	case kindStream:
		var got []matchJSON
		done := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			switch {
			case bytes.Contains(line, scoreKey):
				var m matchJSON
				if err := json.Unmarshal(line, &m); err != nil {
					return fmt.Errorf("%s: match line: %w", r.path, err)
				}
				got = append(got, m)
			case bytes.Contains(line, []byte(`"done"`)):
				var tr struct {
					Count  int    `json:"count"`
					Reason string `json:"reason"`
				}
				if err := json.Unmarshal(line, &tr); err != nil {
					return fmt.Errorf("%s: trailer: %w", r.path, err)
				}
				if tr.Count != len(got) || (tr.Reason != "max" && tr.Reason != "exhausted") {
					return fmt.Errorf("%s: trailer count %d reason %q after %d match lines", r.path, tr.Count, tr.Reason, len(got))
				}
				done = true
			}
		}
		if !done {
			return fmt.Errorf("%s: no trailer", r.path)
		}
		// TopK drains the tie group at the k-th score, so it may hold
		// more than max matches; the stream is its prefix.
		want, err := o.topK(r.q, r.k)
		if err != nil {
			return err
		}
		if len(want) > r.k {
			want = want[:r.k]
		}
		if err := sameMatches(got, want); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
	}
	return nil
}

// answersDigest hashes the oracle's answers to the sampled positions of
// the first n requests: what a correct daemon serves there, fixed by the
// seed and not by how far a run got.
func (o oracle) answersDigest(in *inputs, n int, keep func(int) bool) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for idx := 0; idx < n && idx < len(in.seq); idx++ {
		if !keep(idx) {
			continue
		}
		r := &in.seq[idx]
		items := r.items
		if r.kind != kindBatch {
			items = []batchItem{{Q: r.q, K: r.k}}
		}
		for _, it := range items {
			ms, err := o.topK(it.Q, it.K)
			if err != nil {
				return "", err
			}
			if err := enc.Encode(ms); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
