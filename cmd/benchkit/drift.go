package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"ktpm/internal/bench"
)

// checkDrift verifies that the committed sweep document at path still
// matches what benchkit generates: the same JSON key paths (array
// elements share a schema, so each array is compared through its first
// element) and the same set of configuration row names in every sweep.
// Timing values always differ between runs and are deliberately not
// compared; a renamed field, a dropped sweep, or a configuration row
// appearing or vanishing is drift. make bench-json regenerates the
// committed file; make bench-json-check (CI) runs this.
func checkDrift(rep *bench.TopKReport, path string) error {
	freshRaw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	committedRaw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var fresh, committed any
	if err := json.Unmarshal(freshRaw, &fresh); err != nil {
		return err
	}
	if err := json.Unmarshal(committedRaw, &committed); err != nil {
		return fmt.Errorf("%s: %w (regenerate with make bench-json)", path, err)
	}
	var problems []string
	problems = append(problems, setDiff("key path", keyPaths(fresh), keyPaths(committed))...)
	problems = append(problems, setDiff("row", rowNames(fresh), rowNames(committed))...)
	if len(problems) > 0 {
		return fmt.Errorf("%s out of sync with benchkit output (regenerate with make bench-json):\n  %s",
			path, strings.Join(problems, "\n  "))
	}
	return nil
}

// keyPaths flattens a decoded JSON document into the set of paths at
// which scalars live, e.g. "rows[].ns_per_op".
func keyPaths(v any) map[string]bool {
	out := map[string]bool{}
	var walk func(v any, prefix string)
	walk = func(v any, prefix string) {
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(c, p)
			}
		case []any:
			if len(t) > 0 {
				walk(t[0], prefix+"[]")
			} else {
				out[prefix+"[]"] = true
			}
		default:
			out[prefix] = true
		}
	}
	walk(v, "")
	return out
}

// rowNames collects every sweep row's qualified name, e.g.
// "batch_sweep/batch=1/loop".
func rowNames(doc any) map[string]bool {
	out := map[string]bool{}
	top, _ := doc.(map[string]any)
	for _, sweep := range []string{"rows", "batch_sweep", "startup_sweep", "obs_sweep", "dist_sweep", "overload_sweep"} {
		rows, _ := top[sweep].([]any)
		for _, r := range rows {
			if m, ok := r.(map[string]any); ok {
				if name, ok := m["name"].(string); ok {
					out[sweep+"/"+name] = true
				}
			}
		}
	}
	return out
}

// setDiff reports the elements missing from and unexpected in the
// committed set relative to the freshly generated one.
func setDiff(kind string, fresh, committed map[string]bool) []string {
	var problems []string
	for _, k := range sortedKeys(fresh) {
		if !committed[k] {
			problems = append(problems, fmt.Sprintf("committed file missing %s %q", kind, k))
		}
	}
	for _, k := range sortedKeys(committed) {
		if !fresh[k] {
			problems = append(problems, fmt.Sprintf("committed file has stale %s %q", kind, k))
		}
	}
	return problems
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
