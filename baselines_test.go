package ktpm

import (
	"ktpm/internal/core"
	"ktpm/internal/dp"
	"ktpm/internal/rtg"
)

// baseline names one of the paper's comparison algorithms. The library
// serves only Topk-EN; tests run the baselines over a Database's closure
// and store to check that every algorithm still agrees on it.
type baseline int

const (
	baseTopk baseline = iota // Algorithm 1 over the materialized run-time graph
	baseDPB                  // DP-B of Gou & Chirkova over the same graph
	baseDPP                  // DP-P, loading through the block store
)

var baselines = []baseline{baseTopk, baseDPB, baseDPP}

func (b baseline) String() string { return [...]string{"Topk", "DP-B", "DP-P"}[b] }

// runBaseline returns baseline b's top-k of q over db. Its scores equal
// Topk-EN's; its tie order is the algorithm's own, not the canonical one.
func runBaseline(db *Database, q *Query, k int, b baseline) []Match {
	var out []Match
	switch b {
	case baseTopk:
		for _, m := range core.TopK(rtg.Build(db.c, q.t), k) {
			out = append(out, Match{Nodes: m.Nodes, Score: m.Score})
		}
	case baseDPB:
		for _, m := range dp.TopK(rtg.Build(db.c, q.t), k) {
			out = append(out, Match{Nodes: m.Nodes, Score: m.Score})
		}
	case baseDPP:
		for _, m := range dp.TopKLazy(db.st, q.t, k) {
			out = append(out, Match{Nodes: m.Nodes, Score: m.Score})
		}
	}
	return out
}

// oracleTopK is the brute-force reference every execution path is held
// to: all matches of q over the run-time graph built from db's closure,
// in canonical order (score, then node bindings), cut to k.
func oracleTopK(db *Database, q *Query, k int) []Match {
	var all []Match
	for _, m := range core.BruteForce(rtg.Build(db.c, q.t), 0) {
		all = append(all, Match{Nodes: m.Nodes, Score: m.Score})
	}
	all = sortedMatches(all)
	return append([]Match{}, all[:min(k, len(all))]...)
}

// scoresOf returns the score sequence of ms.
func scoresOf(ms []Match) []int64 {
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = m.Score
	}
	return out
}
