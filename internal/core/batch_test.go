package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ximd/internal/inject"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// buildDiffMachine constructs one machine over the standard
// differential register/memory image without a tracer.
func buildDiffMachine(t *testing.T, prog *isa.Program, cfg Config) (*Machine, *mem.Shared) {
	t.Helper()
	memory := mem.NewShared(diffMemWords)
	for i := uint32(0); i < diffMemWords; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*3-700))
	}
	cfg.Memory = memory
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := uint8(0); i < 24; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*7-40))
	}
	return m, memory
}

// TestBatchMatchesSequential is the batched-vs-per-machine half of the
// equivalence contract: a Batch of random machines advanced in lockstep
// rounds must leave every machine byte-identical to running it alone.
func TestBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	const batchSize = 24
	progs := make([]*isa.Program, batchSize)
	cfgs := make([]Config, batchSize)
	bms := make([]*Machine, batchSize)
	bmems := make([]*mem.Shared, batchSize)
	for i := range progs {
		if i%3 == 0 {
			progs[i] = randomXIMDProgram(r)
		} else {
			progs[i] = randomFusibleXIMDProgram(r)
		}
		if err := progs[i].Validate(); err != nil {
			t.Fatalf("machine %d: invalid program: %v", i, err)
		}
		cfgs[i] = Config{
			MaxCycles:         300,
			TolerateConflicts: r.Intn(2) == 0,
			DetectLivelock:    r.Intn(2) == 0,
		}
		bms[i], bmems[i] = buildDiffMachine(t, progs[i], cfgs[i])
	}

	b := NewBatch(bms)
	if b.Size() != batchSize {
		t.Fatalf("Size = %d, want %d", b.Size(), batchSize)
	}
	for rounds := 0; b.StepRound(17) > 0; rounds++ {
		if rounds > 300 {
			t.Fatal("batch did not converge")
		}
	}
	if b.Live() != 0 {
		t.Fatalf("Live = %d after convergence", b.Live())
	}

	for i := range progs {
		sm, smem := buildDiffMachine(t, progs[i], cfgs[i])
		_, serr := sm.Run()
		assertMachinesAgree(t, fmt.Sprintf("machine %d", i), "batched", "sequential", progs[i],
			b.Machine(i), bmems[i], b.Machine(i).Cycle(), b.Err(i),
			sm, smem, sm.Cycle(), serr)
		if b.Running(i) {
			t.Fatalf("machine %d still marked running", i)
		}
	}
}

// TestBatchStepRoundAllocs is the 0-alloc guard for the batched path:
// steady-state lockstep rounds (fused runs engaged, observability
// disabled) must allocate nothing.
func TestBatchStepRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const batchSize = 8
	ms := make([]*Machine, batchSize)
	for i := range ms {
		m, err := New(allocProgram(), Config{Memory: mem.NewShared(1024), MaxCycles: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	b := NewBatch(ms)
	b.StepRound(128) // warm up staged-write buffers
	avg := testing.AllocsPerRun(256, func() {
		if b.StepRound(64) != batchSize {
			t.Fatal("batch retired a machine unexpectedly")
		}
	})
	if avg != 0 {
		t.Fatalf("%v allocs per steady-state batch round, want 0", avg)
	}
}

// TestResetMatchesNew holds Machine.Reset to the New contract: a pooled
// machine rebound to a different program and config must produce
// exactly the outcome of a freshly-built machine. From iteration 60 on
// the pooled machine alternates between XIMD and lockstep (VLIW)
// bindings, some under injection, as the sweep's shared pools do.
func TestResetMatchesNew(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pooled := &Machine{}
	first := true
	for iter := 0; iter < 100; iter++ {
		lockstep := iter >= 60 && iter%2 == 0
		var prog *isa.Program
		if lockstep {
			prog = randomLockstepProgram(r)
		} else {
			prog = randomFusibleXIMDProgram(r)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		cfg := Config{
			MaxCycles:         300,
			TolerateConflicts: r.Intn(2) == 0,
			DetectLivelock:    r.Intn(2) == 0,
			Engine:            EngineKind(r.Intn(2)),
		}
		if lockstep {
			d, err := PredecodeLockstep(prog)
			if err != nil {
				t.Fatalf("iter %d: PredecodeLockstep: %v", iter, err)
			}
			cfg.Decoded = d
		}
		if lockstep || iter >= 60 && iter%3 == 0 {
			cfg.Inject = inject.MustNew(randomInjectConfig(r))
		}
		if lockstep {
			// Short limits end some runs mid-stall, leaving stall state
			// for the next binding to clear.
			cfg.MaxCycles = uint64(20 + r.Intn(280))
		}

		pmem := mem.NewShared(diffMemWords)
		for i := uint32(0); i < diffMemWords; i++ {
			pmem.Poke(i, isa.WordFromInt(int32(i)*3-700))
		}
		pcfg := cfg
		pcfg.Memory = pmem
		if first {
			m, err := New(prog, pcfg)
			if err != nil {
				t.Fatalf("iter %d: New: %v", iter, err)
			}
			pooled = m
			first = false
		} else if err := pooled.Reset(prog, pcfg); err != nil {
			t.Fatalf("iter %d: Reset: %v", iter, err)
		}
		for i := uint8(0); i < 24; i++ {
			pooled.Regs().Poke(i, isa.WordFromInt(int32(i)*7-40))
		}
		_, perr := pooled.Run()

		fm, fmem := buildDiffMachine(t, prog, cfg)
		_, ferr := fm.Run()
		assertMachinesAgree(t, fmt.Sprintf("iter %d", iter), "reset", "new", prog,
			pooled, pmem, pooled.Cycle(), perr, fm, fmem, fm.Cycle(), ferr)
	}
}
