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
// the real ktpmd binary, spawns two `-role worker` replicas and a
// coordinator over one shared snapshot, plus a plain single-node server
// over the same snapshot, and requires the coordinator's /query, /batch
// and /stream answers to be byte-identical to the single node's, each
// query to open exactly one worker stream, and no worker to send more
// than the k it was asked for. It then SIGKILLs one worker: the
// coordinator must keep answering every request byte-identically from
// the survivor, and its /stats must show the dead replica's breaker
// open. This is the only test that exercises the actual wire — real TCP,
// real process boundaries, real flag parsing — rather than in-process
// httptest plumbing.
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

	workers := make([]*exec.Cmd, len(workerAddrs))
	for i, addr := range workerAddrs {
		args := []string{"-role", "worker", "-snapshot", snapPath, "-addr", addr}
		if i == 0 {
			// Deprecated and ignored: a worker given its old shard slot
			// serves the same whole stream.
			args = append(args, "-worker-index", "0", "-worker-count", "2")
		}
		workers[i] = spawn(t, bin, args...)
	}
	// A long cooldown keeps the killed replica's breaker open, not
	// half-open, until /stats is read.
	spawn(t, bin, "-role", "coordinator", "-snapshot", snapPath,
		"-workers", workerAddrs[0]+","+workerAddrs[1],
		"-breaker-cooldown", "1m", "-addr", coordAddr)
	spawn(t, bin, "-snapshot", snapPath, "-addr", soloAddr)

	for _, addr := range append(append([]string{}, workerAddrs...), coordAddr, soloAddr) {
		waitReady(t, addr)
	}

	queries := []struct {
		q string
		k int
	}{
		{"L000(L001)", 5},
		{"L000(L001,L002)", 20},
		{"L001(L002(L003))", 7},
		{"L004", 3},
	}
	// topK sends /query and /batch requests to both servers and requires
	// the same answers. kOffset keeps a later round's keys out of the
	// coordinator's result cache, so every request reaches a worker.
	topK := func(name string, kOffset int) {
		t.Helper()
		for _, tc := range queries {
			u := "/query?q=" + url.QueryEscape(tc.q) + "&k=" + fmt.Sprint(tc.k+kOffset)
			dist, solo := getLines(t, coordAddr, u), getLines(t, soloAddr, u)
			if len(solo) != 1 || !strings.Contains(solo[0], `"score"`) {
				t.Fatalf("%s %s: no matches; the query must use the generator's labels: %v", name, u, solo)
			}
			if a, b := withoutTiming(t, dist[0]), withoutTiming(t, solo[0]); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s %s: coordinator and single node disagree\ncoordinator: %s\nsingle node: %s", name, u, dist[0], solo[0])
			}
		}
		// Three items, two distinct: the server folds the duplicate.
		batch := fmt.Sprintf(`{"items":[{"q":"L000(L001,L002)","k":%d},{"q":"L001(L002(L003))","k":%d},{"q":"L000(L001,L002)","k":%d}]}`,
			11+kOffset, 13+kOffset, 11+kOffset)
		dist, solo := postBody(t, coordAddr, "/batch", batch), postBody(t, soloAddr, "/batch", batch)
		if a, b := withoutTiming(t, dist), withoutTiming(t, solo); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s /batch: coordinator and single node disagree\ncoordinator: %s\nsingle node: %s", name, dist, solo)
		}
	}
	// stream runs unbounded (k = 0) worker streams: the coordinator must
	// send the single node's lines, the trailer's timing aside.
	stream := func(name string) {
		t.Helper()
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
				t.Fatalf("%s %s: coordinator streamed %d lines, single node %d", name, u, len(dist), len(solo))
			}
			last := len(dist) - 1
			for i := 0; i < last; i++ {
				if dist[i] != solo[i] {
					t.Fatalf("%s %s line %d:\ncoordinator: %s\nsingle node: %s", name, u, i, dist[i], solo[i])
				}
			}
			if a, b := withoutTiming(t, dist[last]), withoutTiming(t, solo[last]); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s %s: trailers differ:\ncoordinator: %s\nsingle node: %s", name, u, dist[last], solo[last])
			}
		}
	}
	// workerTotals sums the workers' stream and match counters.
	workerTotals := func() (streams, matches int64) {
		t.Helper()
		for i, addr := range workerAddrs {
			var ws struct {
				Streams int64 `json:"streams"`
				Matches int64 `json:"matches"`
			}
			getJSON(t, addr, "/stats", &ws)
			if ws.Streams == 0 {
				t.Fatalf("worker %d served no stream; the coordinator must rotate across replicas", i)
			}
			streams += ws.Streams
			matches += ws.Matches
		}
		return streams, matches
	}

	// Four queries and two distinct batch items: six worker streams, one
	// per enumeration, each carrying at most its k matches.
	topK("healthy", 0)
	sumK := 11 + 13
	for _, tc := range queries {
		sumK += tc.k
	}
	if streams, matches := workerTotals(); streams != 6 || matches > int64(sumK) {
		t.Fatalf("6 top-k requests opened %d worker streams carrying %d matches; want 6 streams and at most %d matches",
			streams, matches, sumK)
	}
	stream("healthy")
	if streams, _ := workerTotals(); streams != 8 {
		t.Fatalf("8 requests opened %d worker streams, want one each", streams)
	}

	// Kill one replica outright: no drain, no goodbye.
	if err := workers[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = workers[1].Wait()
	for round := 1; round <= 2; round++ {
		name := fmt.Sprintf("after SIGKILL, round %d", round)
		topK(name, 100*round)
		stream(name)
	}

	var stats struct {
		Workers *struct {
			Workers []struct {
				Addr     string `json:"addr"`
				Requests int64  `json:"requests"`
				Failures int64  `json:"failures"`
				Breaker  struct {
					State string `json:"state"`
				} `json:"breaker"`
			} `json:"per_worker"`
			Snapshot string `json:"snapshot"`
		} `json:"workers"`
	}
	getJSON(t, coordAddr, "/stats", &stats)
	if stats.Workers == nil || len(stats.Workers.Workers) != 2 || stats.Workers.Snapshot == "" {
		t.Fatalf("coordinator /stats workers block: %+v", stats.Workers)
	}
	live, dead := stats.Workers.Workers[0], stats.Workers.Workers[1]
	if !strings.HasSuffix(dead.Addr, workerAddrs[1]) || dead.Failures == 0 || dead.Breaker.State != "open" {
		t.Fatalf("killed replica in /stats: %+v; want its failures counted and its breaker open", dead)
	}
	if live.Failures != 0 || live.Breaker.State != "closed" {
		t.Fatalf("surviving replica in /stats: %+v; want no failures and a closed breaker", live)
	}
}

// withoutTiming decodes a JSON response line and drops its elapsed_ms,
// the one field two servers answering the same request may differ in.
func withoutTiming(t *testing.T, line string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, line)
	}
	delete(m, "elapsed_ms")
	return m
}

// postBody POSTs body as JSON to path and returns the response body.
func postBody(t *testing.T, addr, path, body string) string {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s%s: %d %s", addr, path, resp.StatusCode, out)
	}
	return string(out)
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

// TestRemovedCoordinatorFlags: the scatter-gather's failure flags and a
// '|'-grouped -workers list are usage errors (exit 2) whose message
// names what changed, not flags a routing coordinator silently ignores.
func TestRemovedCoordinatorFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ktpmd; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "ktpmd")
	if out, err := exec.Command("go", "build", "-o", bin, "ktpm/cmd/ktpmd").CombinedOutput(); err != nil {
		t.Fatalf("go build ktpmd: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-hedge-after", "1s"}, []string{"-hedge-after was removed", "one worker replica"}},
		{[]string{"-worker-retries=2"}, []string{"-worker-retries was removed"}},
		{[]string{"--retry-backoff", "50ms"}, []string{"-retry-backoff was removed"}},
		{[]string{"-degraded", "partial"}, []string{"-degraded was removed", "no partial answers"}},
		{[]string{"-workers", "a:1|b:1,c:1"}, []string{"'|'", "replica"}},
	} {
		args := append([]string{"-role", "coordinator", "-snapshot", "absent.snap", "-addr", freeAddr(t)}, tc.args...)
		if tc.args[0] != "-workers" {
			args = append(args, "-workers", freeAddr(t))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ktpmd %v: want exit 2, got %v:\n%s", tc.args, err, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(out), w) {
				t.Fatalf("ktpmd %v: message does not say %q:\n%s", tc.args, w, out)
			}
		}
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
func spawn(t *testing.T, bin string, args ...string) *exec.Cmd {
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
	return cmd
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
