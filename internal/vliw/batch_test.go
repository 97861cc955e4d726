package vliw

import (
	"fmt"
	"math/rand"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

func buildVLIWDiffMachine(t *testing.T, p *Program, cfg Config) (*Machine, *mem.Shared) {
	t.Helper()
	memory := mem.NewShared(1024)
	for i := uint32(0); i < 1024; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*5-900))
	}
	cfg.Memory = memory
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := uint8(0); i < 12; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
	}
	return m, memory
}

// TestVLIWBatchMatchesSequential: a Batch of random VLIW machines
// advanced in lockstep rounds must leave every machine byte-identical
// to running it alone.
func TestVLIWBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	const batchSize = 24
	progs := make([]*Program, batchSize)
	cfgs := make([]Config, batchSize)
	bms := make([]*Machine, batchSize)
	bmems := make([]*mem.Shared, batchSize)
	for i := range progs {
		if i%3 == 0 {
			progs[i] = randomVLIWProgram(r)
		} else {
			progs[i] = randomFusibleVLIWProgram(r)
		}
		if err := progs[i].Validate(); err != nil {
			t.Fatalf("machine %d: invalid program: %v", i, err)
		}
		cfgs[i] = Config{MaxCycles: 1000, TolerateConflicts: r.Intn(2) == 0}
		bms[i], bmems[i] = buildVLIWDiffMachine(t, progs[i], cfgs[i])
	}

	b := core.NewBatch(bms)
	for rounds := 0; b.StepRound(17) > 0; rounds++ {
		if rounds > 300 {
			t.Fatal("batch did not converge")
		}
	}
	if b.Live() != 0 {
		t.Fatalf("Live = %d after convergence", b.Live())
	}

	for i := range progs {
		sm, smem := buildVLIWDiffMachine(t, progs[i], cfgs[i])
		_, serr := sm.Run()
		assertVLIWAgree(t, fmt.Sprintf("machine %d", i), "batched", "sequential",
			b.Machine(i), bmems[i], b.Machine(i).Cycle(), b.Err(i),
			sm, smem, sm.Cycle(), serr)
	}
}

// TestVLIWBatchStepRoundAllocs is the 0-alloc guard for the batched
// VLIW path.
func TestVLIWBatchStepRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const batchSize = 8
	ms := make([]*Machine, batchSize)
	for i := range ms {
		m, err := New(allocVLIWProgram(), Config{Memory: mem.NewShared(1024), MaxCycles: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	b := core.NewBatch(ms)
	b.StepRound(128)
	avg := testing.AllocsPerRun(256, func() {
		if b.StepRound(64) != batchSize {
			t.Fatal("batch retired a machine unexpectedly")
		}
	})
	if avg != 0 {
		t.Fatalf("%v allocs per steady-state batch round, want 0", avg)
	}
}

// TestVLIWResetMatchesNew holds Machine.Reset to the New contract
// across programs, engines, and configs.
func TestVLIWResetMatchesNew(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var pooled *Machine
	for iter := 0; iter < 60; iter++ {
		p := randomFusibleVLIWProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		cfg := Config{
			MaxCycles:         1000,
			TolerateConflicts: r.Intn(2) == 0,
			Engine:            core.EngineKind(r.Intn(2)),
		}

		pmem := mem.NewShared(1024)
		for i := uint32(0); i < 1024; i++ {
			pmem.Poke(i, isa.WordFromInt(int32(i)*5-900))
		}
		pcfg := cfg
		pcfg.Memory = pmem
		if pooled == nil {
			m, err := New(p, pcfg)
			if err != nil {
				t.Fatalf("iter %d: New: %v", iter, err)
			}
			pooled = m
		} else if err := pooled.Reset(nil, withDecoded(t, p, pcfg)); err != nil {
			t.Fatalf("iter %d: Reset: %v", iter, err)
		}
		for i := uint8(0); i < 12; i++ {
			pooled.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
		}
		_, perr := pooled.Run()

		fm, fmem := buildVLIWDiffMachine(t, p, cfg)
		_, ferr := fm.Run()
		assertVLIWAgree(t, fmt.Sprintf("iter %d", iter), "reset", "new",
			pooled, pmem, pooled.Cycle(), perr, fm, fmem, fm.Cycle(), ferr)
	}
}
