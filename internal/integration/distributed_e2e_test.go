package integration

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
)

// TestDistributedE2E is the process-level distributed smoke: it builds
// the real ktpmd binary, spawns two `-role worker` processes and a
// coordinator over one shared snapshot, plus a plain single-node server
// over the same snapshot, and requires the coordinator's /query answers
// and /stream lines to be byte-identical to the single node's, and each
// worker to send no more than the k it was asked for. This is the only
// test that exercises the actual wire — real TCP, real process
// boundaries, real flag parsing — rather than in-process httptest
// plumbing.
func TestDistributedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	dir := t.TempDir()

	bin := filepath.Join(dir, "ktpmd")
	build := exec.Command("go", "build", "-o", bin, "ktpm/cmd/ktpmd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ktpmd: %v\n%s", err, out)
	}

	// One snapshot shared by every process — same bytes, same identity.
	snapPath := filepath.Join(dir, "g.snap")
	g := gen.ErdosRenyi(80, 300, 5, 17)
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

	workerAddrs := []string{freeAddr(t), freeAddr(t)}
	coordAddr := freeAddr(t)
	soloAddr := freeAddr(t)

	for i, addr := range workerAddrs {
		spawn(t, bin, "-role", "worker", "-snapshot", snapPath,
			"-worker-index", fmt.Sprint(i), "-worker-count", "2", "-addr", addr)
	}
	spawn(t, bin, "-role", "coordinator", "-snapshot", snapPath,
		"-workers", workerAddrs[0]+","+workerAddrs[1],
		"-worker-retries", "2", "-addr", coordAddr)
	spawn(t, bin, "-snapshot", snapPath, "-addr", soloAddr)

	for _, addr := range append(append([]string{}, workerAddrs...), coordAddr, soloAddr) {
		waitReady(t, addr)
	}

	type queryResp struct {
		Canonical string   `json:"canonical"`
		K         int      `json:"k"`
		Positions []string `json:"positions"`
		Matches   []struct {
			Score int64   `json:"score"`
			Nodes []int32 `json:"nodes"`
		} `json:"matches"`
		Partial bool `json:"partial"`
	}
	sumK := 0
	for _, tc := range []struct {
		q string
		k int
	}{
		{"L000(L001)", 5},
		{"L000(L001,L002)", 20},
		{"L001(L002(L003))", 7},
		{"L004", 3},
	} {
		sumK += tc.k
		u := "/query?q=" + url.QueryEscape(tc.q) + "&k=" + fmt.Sprint(tc.k)
		var dist, solo queryResp
		getJSON(t, coordAddr, u, &dist)
		getJSON(t, soloAddr, u, &solo)
		if dist.Partial {
			t.Fatalf("%s k=%d: coordinator answered partial with all workers up", tc.q, tc.k)
		}
		if len(solo.Matches) == 0 {
			t.Fatalf("%s k=%d: no matches; the query must use the generator's labels", tc.q, tc.k)
		}
		if dist.Canonical != solo.Canonical || dist.K != solo.K ||
			!reflect.DeepEqual(dist.Positions, solo.Positions) ||
			!reflect.DeepEqual(dist.Matches, solo.Matches) {
			t.Fatalf("%s k=%d: coordinator and single node disagree\ncoordinator: %+v\nsingle node: %+v",
				tc.q, tc.k, dist, solo)
		}
	}

	// The coordinator's /stats must carry the per-worker block.
	var stats struct {
		Workers *struct {
			Workers []struct {
				Requests int64 `json:"requests"`
			} `json:"per_worker"`
			Snapshot string `json:"snapshot"`
		} `json:"workers"`
		Partials int64 `json:"partials"`
	}
	getJSON(t, coordAddr, "/stats", &stats)
	if stats.Workers == nil {
		t.Fatal("coordinator /stats has no workers block")
	}
	if n := len(stats.Workers.Workers); n != 2 {
		t.Fatalf("coordinator /stats reports %d workers, want 2", n)
	}
	if stats.Workers.Snapshot == "" {
		t.Fatal("coordinator /stats workers block has empty snapshot identity")
	}
	for i, w := range stats.Workers.Workers {
		if w.Requests == 0 {
			t.Fatalf("worker %d served no requests despite %d queries", i, 4)
		}
	}
	if stats.Partials != 0 {
		t.Fatalf("partials = %d with a healthy fleet", stats.Partials)
	}

	// A top-k stream carries at most k matches, so across the queries
	// above no worker can have sent more than their k's summed.
	for i, addr := range workerAddrs {
		var ws struct {
			Matches int64 `json:"matches"`
		}
		getJSON(t, addr, "/stats", &ws)
		if ws.Matches > int64(sumK) {
			t.Fatalf("worker %d sent %d matches for queries whose k sum to %d", i, ws.Matches, sumK)
		}
	}

	// /stream runs the unbounded (k = 0) worker streams: the coordinator
	// must send the single node's lines, the trailer's timing aside.
	for _, tc := range []struct {
		q   string
		max int
	}{
		{"L000(L001,L002)", 60},
		{"L001(L002(L003))", 100000},
	} {
		u := "/stream?q=" + url.QueryEscape(tc.q) + "&max=" + fmt.Sprint(tc.max)
		dist, solo := getLines(t, coordAddr, u), getLines(t, soloAddr, u)
		if len(dist) != len(solo) || len(dist) < 3 {
			t.Fatalf("%s: coordinator streamed %d lines, single node %d", u, len(dist), len(solo))
		}
		last := len(dist) - 1
		for i := 0; i < last; i++ {
			if dist[i] != solo[i] {
				t.Fatalf("%s line %d:\ncoordinator: %s\nsingle node: %s", u, i, dist[i], solo[i])
			}
		}
		var dt, st map[string]any
		if json.Unmarshal([]byte(dist[last]), &dt) != nil || json.Unmarshal([]byte(solo[last]), &st) != nil {
			t.Fatalf("%s: trailers are not JSON:\n%s\n%s", u, dist[last], solo[last])
		}
		delete(dt, "elapsed_ms")
		delete(st, "elapsed_ms")
		if !reflect.DeepEqual(dt, st) {
			t.Fatalf("%s: trailers differ:\ncoordinator: %s\nsingle node: %s", u, dist[last], solo[last])
		}
	}
}

// TestCoordinatorRejectsCacheMinEntries: a coordinator prices a result
// by its local store, which the workers' enumeration never reads, so
// under -cache-min-entries > 0 every cache fill would cost 0 and be
// bypassed. ktpmd must refuse the combination as a usage error (exit 2)
// instead of starting a daemon whose cache never holds anything.
func TestCoordinatorRejectsCacheMinEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ktpmd; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ktpmd")
	if out, err := exec.Command("go", "build", "-o", bin, "ktpm/cmd/ktpmd").CombinedOutput(); err != nil {
		t.Fatalf("go build ktpmd: %v\n%s", err, out)
	}
	snapPath := filepath.Join(dir, "g.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := closure.WriteSnapshot(f, closure.Compute(gen.ErdosRenyi(30, 90, 4, 5), closure.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-role", "coordinator", "-snapshot", snapPath,
		"-workers", freeAddr(t), "-cache-min-entries", "8", "-addr", freeAddr(t)).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("ktpmd -role coordinator -cache-min-entries 8 started and kept running:\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-cache-min-entries") {
		t.Fatalf("want exit 2 naming -cache-min-entries, got %v:\n%s", err, out)
	}
}

// getLines fetches path and splits the body into lines.
func getLines(t *testing.T, addr, path string) []string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: %d %s", addr, path, resp.StatusCode, body)
	}
	return strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
}

// freeAddr reserves a loopback port by binding and releasing it. A
// racing process could steal it before ktpmd binds, but each port is
// used immediately and the test would fail loudly, not silently.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// spawn starts a ktpmd process and guarantees it dies with the test.
func spawn(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = cmd.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	go func() {
		b, _ := io.ReadAll(out)
		if t.Failed() && len(b) > 0 {
			t.Logf("ktpmd %v:\n%s", args, b)
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// waitReady polls /readyz until the process accepts traffic. The
// coordinator holds 503 until it has verified worker topology, so this
// doubles as the handshake check.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, body)
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became ready: %s", addr, last)
}

func getJSON(t *testing.T, addr, path string, into any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: %d %s", addr, path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s%s: bad JSON %v\n%s", addr, path, err, body)
	}
}
