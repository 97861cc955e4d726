package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"ximd/internal/workloads"
)

// suite builds a mixed batch of real workload tasks: ≥8 independent
// machines (XIMD and VLIW, differing programs and inputs).
func suite() []Task {
	r := rand.New(rand.NewSource(41))
	minmax := make([]int32, 64)
	for i := range minmax {
		minmax[i] = int32(r.Intn(100000) - 50000)
	}
	bits := make([]int32, 16)
	for i := range bits {
		bits[i] = int32(r.Uint32())
	}
	y := make([]int32, 65)
	for i := range y {
		y[i] = int32(i * 7 % 311)
	}
	return []Task{
		XIMD(workloads.TPROC(3, -4, 5, -6)),
		VLIW(workloads.TPROC(3, -4, 5, -6)),
		XIMD(workloads.LL12(y)),
		XIMD(workloads.LL12Scalar(y)),
		XIMD(workloads.MinMax(minmax)),
		VLIW(workloads.MinMax(minmax)),
		XIMD(workloads.Bitcount(bits)),
		VLIW(workloads.Bitcount(bits)),
		XIMD(workloads.IOPorts(workloads.IOPortsSS, 5, 1, 8)),
		XIMD(workloads.IOPorts(workloads.IOPortsVLIW, 5, 1, 8)),
	}
}

// TestParallelMatchesSerial runs ≥8 real machines concurrently (the
// -race regression for the Stats aliasing fixes) and requires results
// identical, and identically ordered, to a serial run.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := Run(context.Background(), suite(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), suite(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if p.Index != i || p.Name != s.Name {
			t.Fatalf("result %d out of order: got (%d, %q), want (%d, %q)",
				i, p.Index, p.Name, i, s.Name)
		}
		if p.Cycles != s.Cycles {
			t.Errorf("%s: cycles %d (parallel) != %d (serial)", s.Name, p.Cycles, s.Cycles)
		}
		if p.Stats.TotalDataOps() != s.Stats.TotalDataOps() || p.Stats.Cycles != s.Stats.Cycles {
			t.Errorf("%s: stats diverge: parallel %v serial %v", s.Name, p.Stats, s.Stats)
		}
		if p.Err != nil {
			t.Errorf("%s: unexpected error %v", s.Name, p.Err)
		}
	}
}

func TestCollectErrors(t *testing.T) {
	boom1 := errors.New("boom one")
	boom2 := errors.New("boom two")
	var ran atomic.Int32
	ok := func(context.Context) (Outcome, error) {
		ran.Add(1)
		return Outcome{Cycles: 7}, nil
	}
	tasks := []Task{
		{Name: "a", Run: ok},
		{Name: "b", Run: func(context.Context) (Outcome, error) { return Outcome{}, boom1 }},
		{Name: "c", Run: ok},
		{Name: "d", Run: func(context.Context) (Outcome, error) { return Outcome{}, boom2 }},
		{Name: "e", Run: ok},
	}
	res, err := Run(context.Background(), tasks, Options{Workers: 4, Policy: CollectErrors})
	if !errors.Is(err, boom1) || !errors.Is(err, boom2) {
		t.Fatalf("joined error %v, want both failures", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d successful tasks, want all 3 despite failures", ran.Load())
	}
	if res[1].Err != boom1 || res[3].Err != boom2 || res[0].Err != nil {
		t.Fatalf("per-result errors misplaced: %v", res)
	}
	if res[0].Cycles != 7 || res[1].Cycles != 0 {
		t.Fatalf("outcomes misplaced: %v", res)
	}
}

func TestFailFast(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		{Name: "fails", Run: func(context.Context) (Outcome, error) { return Outcome{}, boom }},
	}
	for i := 0; i < 16; i++ {
		tasks = append(tasks, Task{Name: fmt.Sprintf("t%d", i),
			Run: func(context.Context) (Outcome, error) { return Outcome{Cycles: 1}, nil }})
	}
	// Serial fail-fast is fully deterministic: nothing after the failure runs.
	res, err := Run(context.Background(), tasks, Options{Workers: 1, Policy: FailFast})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for _, r := range res[1:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("task %s after failure: err = %v, want cancellation", r.Name, r.Err)
		}
	}
	// Parallel fail-fast still reports the failure as the run error.
	if _, err := Run(context.Background(), tasks, Options{Workers: 4, Policy: FailFast}); !errors.Is(err, boom) {
		t.Fatalf("parallel err = %v, want %v", err, boom)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	tasks := []Task{{Name: "never", Run: func(context.Context) (Outcome, error) {
		ran.Add(1)
		return Outcome{}, nil
	}}}
	res, err := Run(ctx, tasks, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("task ran despite cancelled context")
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("result err = %v, want context.Canceled", res[0].Err)
	}
}

func TestDefaultWorkersAndEmpty(t *testing.T) {
	if res, err := Run(context.Background(), nil, Options{}); err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}
	tasks := []Task{{Name: "one", Run: func(context.Context) (Outcome, error) {
		return Outcome{Cycles: 3}, nil
	}}}
	res, err := Run(context.Background(), tasks, Options{}) // Workers <= 0 => GOMAXPROCS
	if err != nil || res[0].Cycles != 3 {
		t.Fatalf("default workers: res=%v err=%v", res, err)
	}
}

// BenchmarkSweepTaskAllocs measures the full per-task cost of the
// standard TPROC sweep task: a fresh environment and machine, the run,
// and the result check.
func BenchmarkSweepTaskAllocs(b *testing.B) {
	task := XIMD(workloads.TPROC(3, -4, 5, -6))
	ctx := context.Background()
	if _, err := task.Run(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
