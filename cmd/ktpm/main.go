// Command ktpm runs a top-k tree matching query against a graph file.
//
// Usage:
//
//	ktpm -graph g.txt -query "a(b,c(d))" -k 20 [-count]
//	ktpm -graph g.txt -save-snapshot g.snap
//	ktpm -verify-snapshot g.snap
//
// The graph file uses the library text format ("n <id> <label>" and
// "e <from> <to> [w]" lines). The query syntax is the library's compact
// tree form: '/' prefixes parent-child edges, '*' is a wildcard label.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ktpm"
	"ktpm/internal/closure"
	"ktpm/internal/fsio"
	"ktpm/internal/obs"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to the data graph file")
		snapPath  = flag.String("snapshot", "", "path to a KTPMSNAP2 snapshot (alternative to -graph; see -snapshot-mode)")
		snapMode  = flag.String("snapshot-mode", "mmap", "snapshot table backing: eager, lazy, or mmap")
		saveSnap  = flag.String("save-snapshot", "", "write a KTPMSNAP2 snapshot here (openable eagerly, lazily, or via mmap)")
		snapFmt   = flag.String("snapshot-format", "v2", "deprecated and due for removal: v2 (KTPMSNAP2) is the only snapshot format, and any other value is an error")
		queryStr  = flag.String("query", "", "query tree, e.g. \"a(b,c(d))\"")
		k         = flag.Int("k", 10, "number of matches to return")
		verify    = flag.String("verify-snapshot", "", "validate a KTPMSNAP2 snapshot — magic, header/directory bounds, the CRC32C trailer, and every table payload — then exit (0 healthy, nonzero corrupt)")
		count     = flag.Bool("count", false, "also print the total number of matches")
		explain   = flag.Bool("explain", false, "print the query plan before running")
		quiet     = flag.Bool("quiet", false, "print scores only")
		version   = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *version {
		bi := obs.Build()
		fmt.Printf("ktpm %s %s", bi.Version, bi.Go)
		if bi.Revision != "" {
			fmt.Printf(" (%s)", bi.Revision)
		}
		fmt.Println()
		return
	}
	if *verify != "" {
		verifySnapshot(*verify)
		return
	}
	if (*graphPath == "" && *snapPath == "") || (*queryStr == "" && *saveSnap == "") {
		flag.Usage()
		os.Exit(2)
	}
	mode, ok := ktpm.ParseSnapshotMode(*snapMode)
	if !ok {
		fatalf("unknown snapshot mode %q (want eager, lazy, mmap)", *snapMode)
	}
	if *snapFmt != "v2" {
		fatalf("unknown snapshot format %q (v2 is the only format)", *snapFmt)
	}

	var db *ktpm.Database
	if *snapPath != "" {
		t0 := time.Now()
		var err error
		db, err = ktpm.OpenSnapshot(*snapPath, ktpm.SnapshotOptions{Mode: mode})
		if err != nil {
			fatalf("open snapshot: %v", err)
		}
		defer db.Close()
		ss, _ := db.SnapshotStats()
		fmt.Printf("snapshot opened in %v (%s mode)\n", time.Since(t0).Round(time.Microsecond), ss.Mode)
	} else {
		f, err := os.Open(*graphPath)
		if err != nil {
			fatalf("open graph: %v", err)
		}
		g, err := ktpm.LoadGraph(f)
		f.Close()
		if err != nil {
			fatalf("load graph: %v", err)
		}
		fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
		t0 := time.Now()
		db, err = ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
		if err != nil {
			fatalf("build database: %v", err)
		}
		entries, tables, theta, size := db.ClosureStats()
		fmt.Printf("closure: %d entries in %d tables (theta %.1f, %.1f MB) in %v\n",
			entries, tables, theta, float64(size)/1e6, time.Since(t0).Round(time.Millisecond))
	}
	if *saveSnap != "" {
		// Crash-atomic: a kill mid-write leaves only a *.tmp sibling
		// behind, never a torn file at the path, and an existing file
		// there survives any failure intact.
		if err := fsio.WriteFileAtomic(*saveSnap, func(w io.Writer) error {
			return ktpm.SaveSnapshot(w, db)
		}); err != nil {
			fatalf("save %s: %v", *saveSnap, err)
		}
		fmt.Printf("snapshot written to %s\n", *saveSnap)
	}
	if *queryStr == "" {
		return
	}

	q, err := db.ParseQuery(*queryStr)
	if err != nil {
		fatalf("parse query: %v", err)
	}
	if *explain {
		plan, err := db.Explain(q)
		if err != nil {
			fatalf("explain: %v", err)
		}
		fmt.Print(plan)
	}
	t0 := time.Now()
	ms, err := db.TopK(q, *k)
	if err != nil {
		fatalf("query: %v", err)
	}
	elapsed := time.Since(t0)
	fmt.Printf("found %d match(es) in %v\n", len(ms), elapsed.Round(time.Microsecond))
	for i, m := range ms {
		if *quiet {
			fmt.Printf("top-%d score=%d\n", i+1, m.Score)
			continue
		}
		parts := make([]string, len(m.Nodes))
		for j, v := range m.Nodes {
			parts[j] = fmt.Sprintf("%s=%d", q.LabelOf(j), v)
		}
		fmt.Printf("top-%d score=%d  %s\n", i+1, m.Score, strings.Join(parts, " "))
	}
	if *count {
		fmt.Printf("total matches: %d\n", db.CountMatches(q))
	}
}

// verifySnapshot runs the -verify-snapshot engine and prints a one-line
// health report; corruption exits nonzero with the failure on stderr.
func verifySnapshot(path string) {
	rep, err := closure.VerifySnapshotFile(path)
	if err != nil {
		fatalf("verify %s: %v", path, err)
	}
	fmt.Printf("%s: OK — %d tables, %d entries, %d bytes, CRC32C trailer verified\n",
		path, rep.Tables, rep.Entries, rep.SizeBytes)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ktpm: "+format+"\n", args...)
	os.Exit(1)
}
