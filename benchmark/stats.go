package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// summary is one metric of one workload over the repeats of an
// invocation.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives, which is how the spread of a
// metric is judged; fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		d := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarize groups runs by workload and metric.
func summarize(runs []*runResult) map[string]map[string]summary {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]summary{}
	for wl, byName := range values {
		out[wl] = map[string]summary{}
		for name, xs := range byName {
			q1, q2, q3 := quartiles(xs)
			out[wl][name] = summary{Median: q2, Q1: q1, Q3: q3, N: len(xs), Unit: units[name]}
		}
	}
	return out
}

// compareFiles prints, for every end-to-end metric of every workload the
// two results files share, the old and new medians, their ratio, the
// bound BENCHMARK.json fixes and a verdict. A row whose spread, on either
// side, is wider than its bound is unresolved: the runs cannot tell a
// change of that size from noise.
func compareFiles(spec *benchSpec, oldPath, newPath string, w io.Writer) error {
	load := func(path string) (*results, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	oldR, err := load(oldPath)
	if err != nil {
		return err
	}
	newR, err := load(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict")
	for _, wl := range sortedKeys(oldR.Summary) {
		for _, m := range spec.EndToEnd {
			a, ok1 := oldR.Summary[wl][m.Name]
			b, ok2 := newR.Summary[wl][m.Name]
			if !ok1 || !ok2 || a.Median == 0 {
				continue
			}
			ratio := b.Median / a.Median
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f of %.6g %s\t%.0f%%\t%s\n",
				wl, m.Name, a.Median, b.Median, ratio, a.Median, m.Unit, m.Bound*100, verdict(m, a, b))
		}
	}
	return tw.Flush()
}

func verdict(m specMetric, a, b summary) string {
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return "unresolved"
	}
	worse := b.Median/a.Median - 1 // for a lower-is-better metric
	if m.Better == "higher" {
		worse = a.Median/b.Median - 1
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case -worse > m.Bound:
		return "improved"
	}
	return "unchanged"
}
