package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by executor.Do when the admission queue is at
// capacity; the HTTP layer translates it to 503 Service Unavailable.
var ErrQueueFull = errors.New("server: admission queue full")

// PanicError is returned by executor.Do when the submitted task
// panicked. The recover happens on the worker goroutine, so one
// poisonous query takes down its own request (500) instead of the
// process; the HTTP layer additionally quarantines the canonical query
// so repeats fast-fail without re-running the crash.
type PanicError struct {
	Val   any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("server: task panicked: %v", e.Val)
}

// executor is a fixed-size worker pool with a bounded admission queue.
// Bounding the queue — rather than spawning a goroutine per request — is
// the admission-control half of the design: under overload the service
// sheds load immediately with ErrQueueFull instead of accumulating
// unbounded in-flight work, and the fixed worker count keeps at most
// Concurrency top-k queries in flight, each holding one enumerator (one
// per shard on a sharded backend) with its run-time-graph fragment, so
// memory is bounded too. Between queries what stays resident is the
// lazy package's pool of released enumerators: each keeps at most 4 MiB
// of slabs and dense indexes, and sync.Pool lets go of any that two
// garbage collections find unused.
type executor struct {
	tasks chan *task

	closeOnce sync.Once
	wg        sync.WaitGroup

	queued   atomic.Int64 // tasks admitted but not yet started
	inFlight atomic.Int64 // tasks currently running
	canceled atomic.Int64 // tasks dropped from the queue after ctx expiry
	panics   atomic.Int64 // tasks that panicked and were recovered
}

type task struct {
	ctx      context.Context
	fn       func()
	done     chan struct{}
	panicErr *PanicError // set before done closes when fn panicked
}

// newExecutor starts workers goroutines serving a queue of queueDepth
// waiting tasks (beyond the ones already running).
func newExecutor(workers, queueDepth int) *executor {
	e := &executor{tasks: make(chan *task, queueDepth)}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

func (e *executor) worker() {
	defer e.wg.Done()
	for t := range e.tasks {
		e.queued.Add(-1)
		// A caller that timed out while queued has already gone away;
		// running its query would only steal a worker from live requests.
		if t.ctx.Err() != nil {
			e.canceled.Add(1)
			close(t.done)
			continue
		}
		e.runTask(t)
	}
}

// runTask executes one task with panic isolation: a crashing enumeration
// is converted into a PanicError on the task (read by Do after done
// closes) instead of killing the worker goroutine — which would both
// crash the process and silently shrink the pool. The defers keep the
// in-flight gauge and the done contract correct on every exit path.
func (e *executor) runTask(t *task) {
	e.inFlight.Add(1)
	defer func() {
		if r := recover(); r != nil {
			t.panicErr = &PanicError{Val: r, Stack: debug.Stack()}
			e.panics.Add(1)
		}
		e.inFlight.Add(-1)
		close(t.done)
	}()
	t.fn()
}

// Do submits fn and waits until it finishes or ctx expires. It returns
// ErrQueueFull when the queue cannot admit the task, and ctx.Err() on
// expiry — in which case a task that already started keeps running to
// completion on its worker (top-k enumeration has no preemption points)
// and its result is discarded, while a still-queued task is dropped.
func (e *executor) Do(ctx context.Context, fn func()) error {
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}
	// Count before the send: a worker may pick the task up (and decrement)
	// the instant it lands in the channel, and the gauge must never go
	// negative under a concurrent /stats read.
	e.queued.Add(1)
	select {
	case e.tasks <- t:
	default:
		e.queued.Add(-1)
		return ErrQueueFull
	}
	select {
	case <-t.done:
		// A panic outranks a context error: the caller must learn the task
		// crashed (and quarantine the query) even if its deadline also
		// expired in the race.
		if t.panicErr != nil {
			return t.panicErr
		}
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Acquire reserves a worker slot until the returned release function is
// called, going through the same admission queue as Do: ErrQueueFull
// when the queue cannot admit it, ctx.Err() when ctx expires before a
// worker frees up. The streaming endpoint uses this — a stream's
// enumeration runs in the handler goroutine (it must interleave with
// response writes), but it still must count against Concurrency so at
// most that many enumerations are resident.
func (e *executor) Acquire(ctx context.Context) (release func(), err error) {
	started := make(chan struct{})
	stop := make(chan struct{})
	t := &task{ctx: ctx, fn: func() { close(started); <-stop }, done: make(chan struct{})}
	e.queued.Add(1)
	select {
	case e.tasks <- t:
	default:
		e.queued.Add(-1)
		return nil, ErrQueueFull
	}
	select {
	case <-started:
		var once sync.Once
		return func() { once.Do(func() { close(stop) }) }, nil
	case <-ctx.Done():
		// The worker's pre-run ctx check races with this expiry: the slot
		// may still be granted after we give up. Release it whenever that
		// happens so the worker is never pinned by an abandoned caller; if
		// the worker instead drops the task (closing done), nothing holds
		// the slot and the goroutine just exits.
		go func() {
			select {
			case <-started:
				close(stop)
			case <-t.done:
			}
		}()
		return nil, ctx.Err()
	}
}

// Close drains the queue and stops the workers. Do must not be called
// after Close.
func (e *executor) Close() {
	e.closeOnce.Do(func() { close(e.tasks) })
	e.wg.Wait()
}
