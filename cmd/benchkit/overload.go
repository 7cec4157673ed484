package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ktpm/internal/bench"
)

// runOverloadSweep drives the overload-protection plane the way a
// misbehaving client fleet would: an open-loop request storm (arrivals
// paced by a clock, not by responses — the load does not politely slow
// down when the server does) with zipfian query popularity, at
// multiples {0.5, 1, 2, 4} of the measured sustainable rate. Each stage
// records the admitted-latency percentiles, what was shed as 429 versus
// hard-rejected as 503, any genuine 5xx, and the brownout detector's
// state from /stats.
//
// The storm targets a live ktpmd at base URL target, with queries read
// from queriesPath, one per line. Saturation is reachable at laptop
// scale only when that daemon is configured small (2 workers, result
// cache off, a tight -max-queue-wait), as the CI overload smoke does.
func runOverloadSweep(target, queriesPath string, stageDur time.Duration) ([]*bench.OverloadRow, error) {
	if stageDur <= 0 {
		stageDur = 1500 * time.Millisecond
	}
	data, err := os.ReadFile(queriesPath)
	if err != nil {
		return nil, fmt.Errorf("overload sweep: -overload-queries: %w", err)
	}
	var queries []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			queries = append(queries, line)
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("overload sweep: no queries in %s", queriesPath)
	}
	base := strings.TrimRight(target, "/")
	// Generous connection reuse: with the default two idle conns per
	// host, an open-loop storm dials a fresh TCP connection per request
	// and the dial queue — not the server — dominates the measured
	// latency.
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
		},
	}

	// Calibrate by measuring, not estimating: a short closed loop at
	// modest concurrency over distinct queries. Its achieved rate is the
	// sustainable rate inclusive of everything a per-request cost model
	// misses — HTTP handling, JSON encoding, GC pressure — which a
	// sequential-latency extrapolation overstates by 2x or more.
	for i := 0; i < 10; i++ {
		status, _, err := oneQuery(client, base, queries[i%len(queries)])
		if err != nil {
			return nil, fmt.Errorf("overload sweep: calibration: %w", err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("overload sweep: calibration query answered %d", status)
		}
	}
	const calClients = 4
	calDone := make(chan int, calClients)
	calStart := time.Now()
	calEnd := calStart.Add(500 * time.Millisecond)
	for c := 0; c < calClients; c++ {
		go func(c int) {
			n := 0
			for i := c; time.Now().Before(calEnd); i += calClients {
				if status, _, err := oneQuery(client, base, queries[i%len(queries)]); err == nil && status == http.StatusOK {
					n++
				}
			}
			calDone <- n
		}(c)
	}
	completed := 0
	for c := 0; c < calClients; c++ {
		completed += <-calDone
	}
	sustainable := float64(completed) / time.Since(calStart).Seconds()
	if sustainable < 1 {
		return nil, fmt.Errorf("overload sweep: calibration completed no queries")
	}

	var rows []*bench.OverloadRow
	for _, mult := range []float64{0.5, 1, 2, 4} {
		row, err := runOverloadStage(client, base, queries, mult, sustainable*mult, stageDur)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		// Let the queue and brownout windows drain between stages so each
		// row measures its own offered rate, not the previous stage's
		// backlog.
		time.Sleep(300 * time.Millisecond)
	}
	return rows, nil
}

// runOverloadStage fires one open-loop stage at qps for dur and
// collects the outcome counts and admitted-latency percentiles.
func runOverloadStage(client *http.Client, base string, queries []string, mult, qps float64, dur time.Duration) (*bench.OverloadRow, error) {
	if qps < 1 {
		qps = 1
	}
	interval := time.Duration(float64(time.Second) / qps)
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 1, uint64(len(queries)-1))

	var (
		mu        sync.Mutex
		latencies []float64
		admitted  int
		shed429   int
		full503   int
		errs5xx   int
	)
	var wg sync.WaitGroup
	sent := 0
	start := time.Now()
	end := start.Add(dur)
	next := start
	for time.Now().Before(end) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		q := queries[zipf.Uint64()]
		sent++
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			t0 := time.Now()
			status, _, err := oneQuery(client, base, q)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				errs5xx++
			case status == http.StatusOK:
				admitted++
				latencies = append(latencies, float64(lat.Nanoseconds())/1e6)
			case status == http.StatusTooManyRequests:
				shed429++
			case status == http.StatusServiceUnavailable:
				full503++
			case status >= 500:
				errs5xx++
			}
		}(q)
	}
	sendDur := time.Since(start)
	wg.Wait()

	// The offered column reports what the storm actually achieved, not
	// the target: at high multipliers the sender itself can fall behind.
	achieved := float64(sent) / sendDur.Seconds()
	sort.Float64s(latencies)
	row := &bench.OverloadRow{
		Name:         fmt.Sprintf("rate=%gx", mult),
		RateMult:     mult,
		OfferedQPS:   achieved,
		Sent:         sent,
		Admitted:     admitted,
		Shed429:      shed429,
		QueueFull503: full503,
		Errors5xx:    errs5xx,
		P50MS:        percentile(latencies, 0.50),
		P99MS:        percentile(latencies, 0.99),
		P999MS:       percentile(latencies, 0.999),
	}
	if sent > 0 {
		row.ShedRate = float64(shed429+full503) / float64(sent)
	}
	stage, transitions, err := readBrownout(client, base)
	if err != nil {
		return nil, err
	}
	row.BrownoutStage = stage
	row.BrownoutTransitions = transitions
	return row, nil
}

// oneQuery issues GET /query and fully drains the response so the
// client connection is reusable.
func oneQuery(client *http.Client, base, q string) (status int, retryAfter string, err error) {
	resp, err := client.Get(base + "/query?k=" + fmt.Sprint(bench.OverloadSweepK) + "&q=" + url.QueryEscape(q))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// readBrownout reads the brownout detector's state from /stats.
func readBrownout(client *http.Client, base string) (int32, int64, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Overload struct {
			BrownoutStage       int32 `json:"brownout_stage"`
			BrownoutTransitions int64 `json:"brownout_transitions"`
		} `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("overload sweep: decoding /stats: %w", err)
	}
	return st.Overload.BrownoutStage, st.Overload.BrownoutTransitions, nil
}

// percentile reads the p-quantile (0..1) from an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
