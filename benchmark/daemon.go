package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildPrograms compiles cmd/ktpmd and cmd/ktpm from the working tree
// into dir. It runs from the module root, found by walking up from the
// working directory to go.mod.
func buildPrograms(dir string) (ktpmd, ktpm string, err error) {
	root, err := moduleRoot()
	if err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/ktpmd", "./cmd/ktpm")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return filepath.Join(abs, "ktpmd"), filepath.Join(abs, "ktpm"), nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// proc is one running ktpmd.
type proc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed when Wait has returned
}

func (p *proc) url() string { return "http://" + p.addr }

// startDaemon launches ktpmd on a free port with the given arguments and
// its log in logPath. The caller stops it.
func startDaemon(bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signal is not news
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("ktpmd %s exited before it was ready; see %s", p.addr, p.log.Name())
		default:
		}
		resp, err := hc.Get(p.url() + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("ktpmd %s not ready after %v; see %s", p.addr, timeout, p.log.Name())
}

// signal sends sig and waits for the process to end, killing it if it
// has not ended after five seconds.
func (p *proc) signal(sig syscall.Signal) {
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (p *proc) stop() { p.signal(syscall.SIGTERM) }
func (p *proc) kill() { p.signal(syscall.SIGKILL) }

// rssPeakMB is the process's VmHWM.
func (p *proc) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stats is a decoded /stats reply. Fields are looked up by path, so a
// field the daemon does not report reads as missing instead of failing
// the run.
type stats map[string]any

func (p *proc) stats() (stats, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(p.url() + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// num returns the number at path, and false when any step is missing.
func (s stats) num(path ...string) (float64, bool) {
	var cur any = map[string]any(s)
	for _, key := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[key]; !ok {
			return 0, false
		}
	}
	f, ok := cur.(float64)
	return f, ok
}

// delta is after.num(path) - before.num(path); ok is false when either
// side lacks the field.
func delta(before, after stats, path ...string) (float64, bool) {
	a, ok1 := before.num(path...)
	b, ok2 := after.num(path...)
	return b - a, ok1 && ok2
}
