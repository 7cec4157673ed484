package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A virtual CPU that goes idle is handed back to the host, and on a
// shared host getting it back takes from tens of microseconds to over a
// millisecond. A paced phase leaves the cores idle between requests, so
// without help every request pays that wake-up two or three times: at
// 500 requests a second it put the median /query at 1.1 to 1.9 ms from
// one run to the next, where 0.8 ms is the work. The benchmark therefore
// keeps the cores awake the way idle=poll would: one child process per
// core spins at SCHED_IDLE, the class the kernel runs only when nothing
// else wants the core and preempts at once when something does.

// schedIdle is SCHED_IDLE of <linux/sched.h>.
const schedIdle = 5

// spin is the child: it lowers itself to SCHED_IDLE and burns its core
// until the benchmark kills it, or, should the benchmark die first,
// until it is orphaned.
func spin() {
	runtime.LockOSThread()
	param := struct{ priority int32 }{}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Spinning at normal priority would take a core from the daemon.
		fmt.Fprintln(os.Stderr, "benchmark: SCHED_IDLE refused:", errno)
		os.Exit(1)
	}
	parent := os.Getppid()
	for {
		for i := 0; i < 1<<22; i++ {
			spinSink++
		}
		if os.Getppid() != parent {
			return
		}
	}
}

var spinSink uint64

// startSpinners launches one spinner per core and returns what stops
// them. A machine that refuses runs without them.
func startSpinners(n int) (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-spin")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			break
		}
		cmds = append(cmds, cmd)
	}
	return func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_ = cmd.Wait() // killed by us; the status says nothing
		}
	}
}
