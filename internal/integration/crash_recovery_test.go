package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
)

// TestCrashRecovery is the process-level durability proof for the
// write path: a real ktpmd with -wal-dir takes serial /ingest batches
// while the test SIGKILLs it at randomized moments — including rounds
// with an aggressive compaction threshold, so kills land around the
// switch of CURRENT to a new generation — then restarts it over the
// same directory and requires (1) every acknowledged write to survive,
// (2) the recovered top-k answers to be identical to a never-crashed
// replica fed the same durable prefix, and (3) a clean -verify-snapshot
// pass over any compacted generation left behind.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills processes; skipped in -short")
	}
	dir := t.TempDir()

	binD := filepath.Join(dir, "ktpmd")
	if out, err := exec.Command("go", "build", "-o", binD, "ktpm/cmd/ktpmd").CombinedOutput(); err != nil {
		t.Fatalf("go build ktpmd: %v\n%s", err, out)
	}
	binC := filepath.Join(dir, "ktpm")
	if out, err := exec.Command("go", "build", "-o", binC, "ktpm/cmd/ktpm").CombinedOutput(); err != nil {
		t.Fatalf("go build ktpm: %v\n%s", err, out)
	}

	// A sparse base over few labels leaves plenty of room for new edges.
	const nodes = 60
	snapPath := filepath.Join(dir, "g.snap")
	g := gen.ErdosRenyi(nodes, 90, 5, 23)
	c := closure.Compute(g, closure.Options{})
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := closure.WriteSnapshot(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	walDir := filepath.Join(dir, "wal")
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("crash-injection seed: %d", seed)

	type edge struct {
		From int32 `json:"from"`
		To   int32 `json:"to"`
		W    int32 `json:"w,omitempty"`
	}
	randBatch := func() []edge {
		b := make([]edge, 1+rng.Intn(4))
		for i := range b {
			from := int32(rng.Intn(nodes))
			to := int32(rng.Intn(nodes))
			for to == from {
				to = int32(rng.Intn(nodes))
			}
			b[i] = edge{From: from, To: to, W: int32(1 + rng.Intn(3))}
		}
		return b
	}

	// One serial writer means the server assigns dense LSNs in send
	// order, but a batch in flight at the kill instant may or may not
	// have reached the WAL before dying — the client just never saw the
	// ack. Acked batches carry their LSN from the response; each kill
	// round contributes at most one "hole" candidate whose durability
	// only the recovered server can reveal.
	type ack struct {
		lsn   uint64
		batch []edge
	}
	var acks []ack // LSNs strictly increasing
	type inflight struct {
		afterLSN uint64 // the last LSN the client had seen acked when this was sent
		batch    []edge
	}
	var holes []inflight

	startVictim := func(threshold string) (*exec.Cmd, string) {
		addr := freeAddr(t)
		cmd := exec.Command(binD, "-snapshot", snapPath, "-addr", addr,
			"-wal-dir", walDir, "-fsync", "always", "-compact-threshold", threshold)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitReady(t, addr)
		return cmd, addr
	}

	ingestOne := func(addr string, b []edge) (uint64, bool) {
		body, _ := json.Marshal(map[string]any{"edges": b})
		resp, err := http.Post("http://"+addr+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, false // killed mid-request: not acked, durability unknown
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			// Errorf, not Fatalf: this runs on the ingest goroutine.
			t.Errorf("ingest rejected with %d", resp.StatusCode)
			return 0, false
		}
		var ir struct {
			LSN uint64 `json:"lsn"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Errorf("bad ingest ack: %v", err)
			return 0, false
		}
		return ir.LSN, true
	}

	// compactions reads the victim's completed-compaction count.
	compactions := func(addr string) uint64 {
		var st struct {
			Ingest struct {
				Compaction struct {
					Count uint64 `json:"count"`
				} `json:"compaction"`
			} `json:"ingest"`
		}
		getJSON(t, addr, "/stats", &st)
		return st.Ingest.Compaction.Count
	}

	// Three kill rounds: no compaction, then a tiny threshold so the
	// compactor races the kill, then no compaction again over the
	// recovered generation. The overlay holds only the closure pairs a
	// batch changed — a few dozen per edge on this graph — so the tiny
	// threshold is tens of entries, crossed every batch or two.
	for round, threshold := range []string{"-1", "40", "-1"} {
		cmd, addr := startVictim(threshold)
		// Pick the kill delay before the ingest goroutine starts sharing
		// rng — rand.Rand is not safe for concurrent use.
		killAfter := time.Duration(30+rng.Intn(150)) * time.Millisecond
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := randBatch()
				var last uint64
				if len(acks) > 0 {
					last = acks[len(acks)-1].lsn
				}
				lsn, ok := ingestOne(addr, b)
				if !ok {
					holes = append(holes, inflight{afterLSN: last, batch: b})
					return
				}
				if lsn <= last {
					t.Errorf("ack LSN %d not increasing past %d", lsn, last)
					return
				}
				acks = append(acks, ack{lsn: lsn, batch: b})
			}
		}()
		var compacted uint64
		if threshold != "-1" {
			// The kill must land among compactions, so the clock starts
			// at the round's first completed compaction.
			for deadline := time.Now().Add(10 * time.Second); compacted == 0; compacted = compactions(addr) {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: no compaction completed at -compact-threshold %s", round, threshold)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		time.Sleep(killAfter)
		if threshold != "-1" {
			compacted = compactions(addr)
		}
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
			t.Fatal(err)
		}
		close(stop)
		<-done
		cmd.Wait()
		t.Logf("round %d: killed after %d acked batches and %d compactions (threshold %s)", round, len(acks), compacted, threshold)
	}

	// Recovery: the restarted daemon must report a durable LSN covering
	// every acked batch, and nothing beyond what was ever sent.
	cmd, addr := startVictim("-1")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	var stats struct {
		Ingest *struct {
			WAL struct {
				LastLSN            uint64 `json:"last_lsn"`
				RecoveredRecords   int64  `json:"recovered_records"`
				TornBytesTruncated int64  `json:"torn_bytes_truncated"`
			} `json:"wal"`
			Overlay struct {
				Watermark      uint64 `json:"watermark"`
				PendingBatches int    `json:"pending_batches"`
			} `json:"overlay"`
			Compaction struct {
				Generation     int    `json:"generation"`
				GenerationFile string `json:"generation_file"`
			} `json:"compaction"`
		} `json:"ingest"`
	}
	getJSON(t, addr, "/stats", &stats)
	if stats.Ingest == nil {
		t.Fatal("/stats has no ingest block after recovery")
	}
	durable := stats.Ingest.WAL.LastLSN
	if w := stats.Ingest.Overlay.Watermark; w > durable {
		durable = w
	}
	var maxAcked uint64
	if len(acks) > 0 {
		maxAcked = acks[len(acks)-1].lsn
	}
	if durable < maxAcked {
		t.Fatalf("LOST ACKED WRITES: durable LSN %d < acked LSN %d", durable, maxAcked)
	}
	if limit := uint64(len(acks) + len(holes)); durable > limit {
		t.Fatalf("durable LSN %d exceeds the %d batches ever sent", durable, limit)
	}
	t.Logf("recovered: durable=%d acked=%d holes=%d torn_bytes=%d generation=%d",
		durable, len(acks), len(holes), stats.Ingest.WAL.TornBytesTruncated, stats.Ingest.Compaction.Generation)

	// Reconstruct the durable log 1..durable: every LSN is either an
	// acked batch or one round's in-flight batch that reached the WAL
	// before the kill (identified by the LSN it had to land after).
	durableBatches := make([][]edge, 0, durable)
	ai := 0
	for lsn := uint64(1); lsn <= durable; lsn++ {
		if ai < len(acks) && acks[ai].lsn == lsn {
			durableBatches = append(durableBatches, acks[ai].batch)
			ai++
			continue
		}
		found := false
		for _, h := range holes {
			if h.afterLSN == lsn-1 {
				durableBatches = append(durableBatches, h.batch)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("durable LSN %d matches no acked batch and no in-flight candidate", lsn)
		}
	}
	if ai != len(acks) {
		t.Fatalf("acked LSN %d lies beyond the durable range %d", acks[ai].lsn, durable)
	}

	// Any generation a crashed compaction left behind must verify clean:
	// generations are written atomically, so a torn one may not exist.
	if gf := stats.Ingest.Compaction.GenerationFile; gf != "" {
		if out, err := exec.Command(binC, "-verify-snapshot", filepath.Join(walDir, gf)).CombinedOutput(); err != nil {
			t.Fatalf("compacted generation fails -verify-snapshot: %v\n%s", err, out)
		}
	}

	// The never-crashed replica: a fresh wal dir over the same base,
	// fed exactly the durable prefix, must answer every query with the
	// same bytes the recovered daemon serves.
	refAddr := freeAddr(t)
	refCmd := exec.Command(binD, "-snapshot", snapPath, "-addr", refAddr, "-wal-dir",
		filepath.Join(dir, "refwal"), "-fsync", "never", "-compact-threshold", "-1")
	refCmd.Stdout, refCmd.Stderr = os.Stderr, os.Stderr
	if err := refCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		refCmd.Process.Kill()
		refCmd.Wait()
	}()
	waitReady(t, refAddr)
	for _, b := range durableBatches {
		if _, ok := ingestOne(refAddr, b); !ok {
			t.Fatal("reference replica rejected an ingest")
		}
	}

	type queryResp struct {
		Canonical string   `json:"canonical"`
		K         int      `json:"k"`
		Positions []string `json:"positions"`
		Matches   []struct {
			Score int64   `json:"score"`
			Nodes []int32 `json:"nodes"`
		} `json:"matches"`
	}
	for _, tc := range []struct {
		q string
		k int
	}{
		{"a(b)", 7},
		{"a(b,c)", 25},
		{"b(c(d))", 10},
		{"c(*,e)", 5},
		{"e", 3},
	} {
		u := "/query?q=" + url.QueryEscape(tc.q) + "&k=" + fmt.Sprint(tc.k)
		var got, want queryResp
		getJSON(t, addr, u, &got)
		getJSON(t, refAddr, u, &want)
		if got.Canonical != want.Canonical || got.K != want.K ||
			!reflect.DeepEqual(got.Positions, want.Positions) ||
			!reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("%s k=%d: recovered daemon and never-crashed replica disagree\nrecovered: %+v\nreference: %+v",
				tc.q, tc.k, got, want)
		}
	}
}
