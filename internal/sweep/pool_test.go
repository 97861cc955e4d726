package sweep

import (
	"context"
	"reflect"
	"testing"

	"ximd/internal/asm"
	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/workloads"
)

// poolProgSrc is a short two-FU program used to isolate the machine
// acquire/run/release cycle from workload environment setup.
const poolProgSrc = `
.fus 2
.fu 0
	iadd r1, #7, r1
	iadd r1, r1, r2
	imult r2, #3, r3
	=> halt
.fu 1
	isub r4, #1, r4
	nop
	nop
	=> halt
`

// TestPooledTaskMatchesFresh: an instance run through the pooled Task
// adapter repeatedly (so later runs recycle machines) must keep
// producing the outcome of a fresh unpooled run, and result checks must
// keep passing.
func TestPooledTaskMatchesFresh(t *testing.T) {
	inst := workloads.TPROC(3, -4, 5, -6)

	fresh, err := workloads.RunXIMD(inst, nil)
	if err != nil {
		t.Fatalf("RunXIMD: %v", err)
	}
	want := Outcome{Cycles: fresh.Cycle(), Stats: fresh.Stats()}

	task := XIMD(inst)
	for i := 0; i < 8; i++ {
		got, err := task.Run(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("run %d diverged from fresh machine:\ngot  %+v\nwant %+v", i, got, want)
		}
	}

	vfresh, err := workloads.RunVLIW(inst, nil)
	if err != nil {
		t.Fatalf("RunVLIW: %v", err)
	}
	vwant := Outcome{Cycles: vfresh.Cycle(), Stats: vfresh.Stats()}
	vtask := VLIW(inst)
	for i := 0; i < 8; i++ {
		got, err := vtask.Run(context.Background())
		if err != nil {
			t.Fatalf("vliw run %d: %v", i, err)
		}
		if got.Cycles != vwant.Cycles || !reflect.DeepEqual(got.Stats, vwant.Stats) {
			t.Fatalf("vliw run %d diverged:\ngot  %+v\nwant %+v", i, got, vwant)
		}
	}
}

// TestPooledAcquireAllocs is the allocs-per-task guard for the pooling
// layer itself: once a machine of the right shape is in the pool, the
// acquire → Reset → run → release cycle must allocate nothing. (A full
// workload task still allocates its per-task environment — memory image
// and checker — by design; machines and register files no longer add to
// that.)
func TestPooledAcquireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	prog, err := asm.Assemble(poolProgSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	decoded, err := core.Predecode(prog)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	memory := mem.NewShared(1024)
	cfg := core.Config{Memory: memory, Decoded: decoded}

	cycle := func() {
		m, err := acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Regs().Poke(1, isa.WordFromInt(5))
		m.Regs().Poke(4, isa.WordFromInt(9))
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := m.Regs().Peek(3).Int(); got != 72 {
			t.Fatalf("r3 = %d, want 72", got)
		}
		release(m)
	}
	cycle() // seed the pool for this shape
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("%v allocs per pooled machine cycle, want 0", avg)
	}
}

// BenchmarkSweepTaskAllocs measures the full per-task cost (environment
// plus pooled machine) of the standard TPROC sweep task; its allocs/op
// report is the regression guard for per-task machine allocations.
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
