// Package sweep is the parallel execution engine for simulation
// batches. XIMD experiments are embarrassingly parallel across
// configurations — every point of a speedup table, ablation, or
// parameter sweep is an independent machine run — so the engine fans a
// task list out over a bounded worker pool, one goroutine per hardware
// thread by default, and collects one Result per task.
//
// Guarantees:
//
//   - Results are returned in task order, regardless of completion
//     order, so table-printing code is deterministic at any width.
//   - Workers == 1 degenerates to a strict serial in-order loop,
//     reproducing single-threaded behavior exactly.
//   - Each task owns its machine, memory, and stats for the duration of
//     its run; the engine never shares mutable state between concurrent
//     tasks. Every run builds a fresh machine and discards it after, and
//     Stats snapshots placed in Results are deep copies
//     (core.Stats.Clone via Machine.Stats), safe to read after or
//     during other runs.
//   - Cancellation is cooperative via context: tasks not yet started
//     when the context is cancelled are marked with the context error,
//     and retry backoff waits abort promptly when the context ends.
//   - A panic inside a task's Run is recovered into that task's Result
//     as a *PanicError; it never kills the worker pool or poisons
//     sibling results.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ximd/internal/core"
	"ximd/internal/vliw"
	"ximd/internal/workloads"
)

// Outcome is what one simulation run produces: the cycle count and a
// snapshot of the execution statistics.
type Outcome struct {
	// Cycles is the simulated machine-cycle count of the run.
	Cycles uint64
	// Stats is a deep-copied statistics snapshot (shared between the
	// XIMD and VLIW machines, which accumulate the same counters).
	Stats core.Stats
}

// Task is one independent simulation to execute. Run must be
// self-contained: it builds its own machine and environment, and must
// not share mutable state with other tasks.
type Task struct {
	// Name labels the task in Results and error messages.
	Name string
	// Run executes the simulation. The context is advisory: the engine
	// checks it between tasks, and long-running tasks may check it
	// themselves.
	Run func(ctx context.Context) (Outcome, error)
}

// Result is the per-run record for one task.
type Result struct {
	// Index is the task's position in the input slice; Results are
	// always ordered by Index.
	Index int
	// Name echoes the task name.
	Name string
	// Outcome holds cycles and the stats snapshot (zero on error).
	Outcome
	// Err is the task's failure, nil on success. Tasks skipped due to
	// fail-fast or cancellation carry the cancellation error.
	Err error
	// Duration is the wall-clock time spent executing the task,
	// including retries and backoff waits; zero for tasks skipped by
	// cancellation. It is measurement, not outcome: two runs of one
	// task agree on Outcome but not on Duration.
	Duration time.Duration
}

// Policy selects how the engine reacts to a failing task.
type Policy int

const (
	// CollectErrors runs every task to completion and records failures
	// in their Results; Run returns the join of all task errors.
	CollectErrors Policy = iota
	// FailFast cancels outstanding work after the first failure; Run
	// returns that first error (in task order among the tasks that ran).
	FailFast
)

// PanicError records a panic recovered from a task's Run, carrying the
// panic value and the goroutine stack at the point of the panic.
type PanicError struct {
	// Name is the name of the task that panicked.
	Name string
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: task %q panicked: %v", e.Name, e.Value)
}

// Retry is the per-task retry policy. Retries exist for injected
// transient faults: a run felled by a seeded bit-flip or NAK can be
// redrawn (restore a checkpoint, bump Injector.NextAttempt) and often
// completes on the next attempt.
type Retry struct {
	// MaxAttempts is the total number of attempts per task; values <= 1
	// mean a single attempt with no retry.
	MaxAttempts int
	// Backoff is the base wait before a retry; attempt n waits
	// n*Backoff. The wait aborts promptly when the context ends.
	Backoff time.Duration
	// Retryable reports whether an error warrants another attempt; nil
	// selects TransientOnly. Panics are never retried.
	Retryable func(error) bool
}

// TransientOnly is the default retry predicate: only injected transient
// faults (core.ErrTransient) are worth a redraw; deterministic failures
// would just fail again.
func TransientOnly(err error) bool {
	return errors.Is(err, core.ErrTransient)
}

// Options configures a sweep.
type Options struct {
	// Workers bounds concurrent tasks; <= 0 selects GOMAXPROCS.
	// Workers == 1 executes tasks serially in order on the calling
	// pattern of a plain loop.
	Workers int
	// Policy is the failure policy; the zero value is CollectErrors.
	Policy Policy
	// Retry is the per-task retry policy; the zero value retries
	// nothing.
	Retry Retry
	// TaskTimeout bounds each attempt: the attempt's context is
	// cancelled with context.DeadlineExceeded after this long. Zero
	// means no per-attempt deadline. Timeouts are only as effective as
	// the task's cooperation — Run must watch its context.
	TaskTimeout time.Duration
}

// Run executes tasks across a worker pool and returns one Result per
// task, in task order. The returned error is nil when every task
// succeeded; under FailFast it is the first failure, under
// CollectErrors the join of all failures.
func Run(ctx context.Context, tasks []Task, opts Options) ([]Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	results := make([]Result, len(tasks))
	for i, t := range tasks {
		results[i] = Result{Index: i, Name: t.Name}
	}
	if len(tasks) == 0 {
		return results, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		failOnce  sync.Once
		failFirst error
	)
	runOne := func(i int) {
		if err := runCtx.Err(); err != nil {
			results[i].Err = err
			return
		}
		start := time.Now()
		out, err := runWithRetry(runCtx, &tasks[i], &opts)
		results[i].Duration = time.Since(start)
		results[i].Outcome = out
		results[i].Err = err
		if err != nil && opts.Policy == FailFast {
			failOnce.Do(func() {
				failFirst = err
				cancel()
			})
		}
	}

	if workers == 1 {
		for i := range tasks {
			runOne(i)
		}
	} else {
		indexes := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range indexes {
					runOne(i)
				}
			}()
		}
		for i := range tasks {
			indexes <- i
		}
		close(indexes)
		wg.Wait()
	}

	if opts.Policy == FailFast {
		if failFirst != nil {
			return results, failFirst
		}
		return results, ctx.Err()
	}
	errs := make([]error, 0)
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, results[i].Err)
		}
	}
	return results, errors.Join(errs...)
}

// runWithRetry drives one task through the retry policy: panics are
// recovered (and never retried), retryable errors get up to
// MaxAttempts draws with linear backoff, and a context ending during a
// backoff wait aborts promptly with the context error joined to the
// last attempt's failure.
func runWithRetry(ctx context.Context, t *Task, opts *Options) (Outcome, error) {
	attempts := opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	retryable := opts.Retry.Retryable
	if retryable == nil {
		retryable = TransientOnly
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if wait := opts.Retry.Backoff * time.Duration(attempt-1); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					timer.Stop()
					return Outcome{}, errors.Join(lastErr, ctx.Err())
				case <-timer.C:
				}
			}
			if err := ctx.Err(); err != nil {
				return Outcome{}, errors.Join(lastErr, err)
			}
		}
		out, err := runAttempt(ctx, t, opts.TaskTimeout)
		if err == nil {
			return out, nil
		}
		lastErr = err
		var pe *PanicError
		if errors.As(err, &pe) || !retryable(err) {
			break
		}
	}
	return Outcome{}, lastErr
}

// runAttempt executes one attempt of a task's Run with panic recovery
// and the optional per-attempt deadline.
func runAttempt(ctx context.Context, t *Task, timeout time.Duration) (out Outcome, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{}
			err = &PanicError{Name: t.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	return t.Run(ctx)
}

// XIMD adapts a workload instance's XIMD variant into a Task: each
// invocation runs workloads.Run on a fresh machine and environment
// (build, poke, run, check) and snapshots cycles and stats.
func XIMD(inst *workloads.Instance) Task {
	// Predecode (and fuse) once at adapter construction: every run of
	// the task shares the immutable decode table, so per-task work is
	// just a machine build plus the simulation itself.
	var decoded *core.Decoded
	var err error
	if inst.XIMD != nil {
		decoded, err = core.Predecode(inst.XIMD)
	}
	return machineTask(inst, "XIMD", decoded, err)
}

// VLIW adapts a workload instance's VLIW variant into a Task, with the
// same per-task lifecycle as XIMD.
func VLIW(inst *workloads.Instance) Task {
	var decoded *core.Decoded
	var err error
	if inst.VLIW != nil {
		decoded, err = vliw.Predecode(inst.VLIW)
	}
	return machineTask(inst, "VLIW", decoded, err)
}

// machineTask is the Task body of XIMD and VLIW: decoded is the
// variant's table, nil (with decodeErr nil) when the instance lacks it.
func machineTask(inst *workloads.Instance, variant string, decoded *core.Decoded, decodeErr error) Task {
	return Task{Name: inst.Name, Run: func(context.Context) (Outcome, error) {
		if decodeErr != nil {
			return Outcome{}, fmt.Errorf("%s: %w", inst.Name, decodeErr)
		}
		if decoded == nil {
			return Outcome{}, fmt.Errorf("workload %s has no %s variant", inst.Name, variant)
		}
		m, err := workloads.Run(inst, core.Config{Decoded: decoded})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Cycles: m.Cycle(), Stats: m.Stats()}, nil
	}}
}
