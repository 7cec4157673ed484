package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one keep-alive connection to a daemon, so the number of
// clients is the number of connections the generator uses. It writes
// each request with one call and parses the reply on the same goroutine:
// net/http's transport hands every exchange to two more goroutines, and
// at 2000 requests a second on two cores those wake-ups made the
// generator a third of the machine's load.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

func newClient(baseURL string) *client {
	return &client{addr: strings.TrimPrefix(baseURL, "http://")}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// sample is the client-side record of one request.
type sample struct {
	idx     int // position in the cycled sequence
	kind    reqKind
	due     time.Time // when the schedule wanted it sent; the send time in a closed loop
	sent    time.Time
	first   time.Time // /stream only: first match line read
	done    time.Time // last body byte read
	status  int
	matches int    // match objects in the reply
	err     string // transport error, empty when a reply was read
	body    []byte // kept only for requests picked for the answer check
}

func (s *sample) ok() bool { return s.err == "" && s.status == http.StatusOK }

var scoreKey = []byte(`"score"`)

// do sends one request and reads the whole reply. Match objects are
// counted by their "score" key so unsampled replies are not decoded.
func (c *client) do(r *request, keep bool) sample {
	s := sample{kind: r.kind}
	fail := func(err error) sample {
		s.done = time.Now()
		s.err = err.Error()
		c.close()
		return s
	}
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			s.sent = time.Now()
			return fail(err)
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	_ = c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	s.sent = time.Now()
	if _, err := c.conn.Write(r.raw); err != nil {
		return fail(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	s.status = resp.StatusCode
	var buf bytes.Buffer
	if r.kind == kindStream && resp.StatusCode == http.StatusOK {
		// Line by line, so the first match is timed when it arrives and
		// not when the stream ends.
		br := bufio.NewReaderSize(resp.Body, 16<<10)
		for {
			line, err := br.ReadSlice('\n')
			if bytes.Contains(line, scoreKey) {
				if s.matches == 0 {
					s.first = time.Now()
				}
				s.matches++
			}
			if keep {
				buf.Write(line)
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err != nil && err != io.EOF {
				return fail(err)
			}
			if err != nil {
				break
			}
		}
	} else {
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return fail(err)
		}
		s.matches = bytes.Count(buf.Bytes(), scoreKey)
	}
	s.done = time.Now()
	if resp.Close {
		c.close()
	}
	if keep {
		s.body = buf.Bytes()
	}
	return s
}

// phase is the outcome of one generator phase.
type phase struct {
	start, end time.Time
	dur        time.Duration // the length asked for; end is when the last reply was read
	scheduled  int           // requests the schedule held (paced) or sent (closed)
	samples    []sample
	next       int     // sequence position after the phase
	cpuShare   float64 // generator CPU over window x cores
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleep blocks the calling thread for d. The runtime's own timers wake a
// sleeping goroutine through a poller with millisecond granularity, which
// on an idle machine sends a request about 0.6 ms after it was due;
// nanosleep is late by about a tenth of that.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // woken early by a signal, the request is merely early
}

// pacedGrace is how long past the end of its window a paced phase keeps
// sending what the schedule still holds.
const pacedGrace = 2 * time.Second

// runPaced is the open loop: request i of the phase is due at
// start + i/rate whatever happened to the ones before it, and is sent by
// whichever client is free at or after that instant. Latency is later
// taken from the due time, so a stall is charged to every request it
// delays.
func runPaced(clients []*client, seq []request, from int, rate float64, dur time.Duration, keep func(int) bool) *phase {
	n := int(rate * dur.Seconds())
	ph := &phase{dur: dur, scheduled: n, next: from + n}
	samples := make([]sample, n)
	sent := make([]bool, n)
	var cursor atomic.Int64
	cpu0 := cpuTime()
	ph.start = time.Now()
	stop := ph.start.Add(dur + pacedGrace)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			runtime.LockOSThread() // sleep blocks the thread it is called on
			defer runtime.UnlockOSThread()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				due := ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					sleep(wait)
				} else if time.Now().After(stop) {
					return
				}
				idx := from + i
				s := c.do(&seq[idx%len(seq)], keep(idx))
				s.idx, s.due = idx, due
				samples[i], sent[i] = s, true
			}
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	ph.cpuShare = float64(cpuTime()-cpu0) / (float64(ph.end.Sub(ph.start)) * float64(len(clients)))
	for i := range samples {
		if sent[i] {
			ph.samples = append(ph.samples, samples[i])
		}
	}
	return ph
}

// runClosed is the closed loop: every client sends its next request when
// it has read the previous reply, for dur.
func runClosed(clients []*client, seq []request, from int, dur time.Duration, keep func(int) bool) *phase {
	ph := &phase{dur: dur}
	var cursor atomic.Int64
	per := make([][]sample, len(clients))
	ph.start = time.Now()
	stop := ph.start.Add(dur)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for time.Now().Before(stop) {
				idx := from + int(cursor.Add(1)-1)
				s := c.do(&seq[idx%len(seq)], keep(idx))
				s.idx, s.due = idx, s.sent
				per[ci] = append(per[ci], s)
			}
		}(ci, c)
	}
	wg.Wait()
	ph.end = time.Now()
	for _, p := range per {
		ph.samples = append(ph.samples, p...)
	}
	ph.scheduled = len(ph.samples)
	ph.next = from + int(cursor.Load())
	return ph
}

// runSequence sends reqs once, in order, closed loop over the clients.
func runSequence(clients []*client, reqs []request) error {
	var cursor atomic.Int64
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if s := c.do(&reqs[i], false); !s.ok() {
					errs[ci] = fmt.Errorf("%s: status %d %s", reqs[i].path, s.status, s.err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// overloaded says why paced phases do not count: the generator sent
// less than 99% of the schedule, which with the grace a phase is given
// means the daemon could not keep up with the rate. It returns "" for
// phases that held their rate.
func overloaded(phases []*phase) string {
	sent, scheduled := 0, 0
	for _, ph := range phases {
		sent += len(ph.samples)
		scheduled += ph.scheduled
	}
	if sent*100 < scheduled*99 {
		return fmt.Sprintf("sent %d of %d scheduled requests", sent, scheduled)
	}
	return ""
}
