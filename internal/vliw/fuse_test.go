package vliw

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Differential testing of the VLIW fused superop engine: a fused run
// must be byte-identical to an unfused (per-cycle) run — cycle count,
// error text, every statistics counter, register file port accounting,
// memory counters, all 256 registers, and memory content. These tests
// run WITHOUT a tracer (a traced machine never fuses, by design) so the
// fused path actually engages.

// randomFusibleVLIWProgram biases randomVLIWProgram toward fusible
// code — a fraction of words get fall-through control — and then plants
// hazards the base generator deliberately avoids: maybe-trapping
// divides, out-of-range accesses, same-cycle store conflicts, and
// duplicate destination registers. The hazards exercise the fused
// engine's bail/replay path and the fuser's dup-dest exclusion.
func randomFusibleVLIWProgram(r *rand.Rand) *Program {
	p := randomVLIWProgram(r)
	n := len(p.Instrs)
	for addr := 0; addr < n-1; addr++ {
		in := &p.Instrs[addr]
		if r.Intn(10) < 6 {
			in.Ctrl = isa.Goto(isa.Addr(addr + 1))
		}
		for fu := 0; fu < p.NumFU; fu++ {
			switch r.Intn(30) {
			case 0: // divide that may trap
				in.Ops[fu] = isa.DataOp{Op: isa.OpIDiv, A: isa.R(uint8(r.Intn(12))),
					B: isa.I(int32(r.Intn(3))), Dest: uint8(12 + fu)}
			case 1: // access straddling the memory boundary
				if r.Intn(2) == 0 {
					in.Ops[fu] = isa.DataOp{Op: isa.OpLoad, A: isa.I(int32(1010 + r.Intn(30))),
						B: isa.I(0), Dest: uint8(12 + fu)}
				} else {
					in.Ops[fu] = isa.DataOp{Op: isa.OpStore, A: isa.R(uint8(r.Intn(12))),
						B: isa.I(int32(1010 + r.Intn(30)))}
				}
			case 2: // narrow shared store window: same-cycle conflicts
				in.Ops[fu] = isa.DataOp{Op: isa.OpStore, A: isa.R(uint8(r.Intn(12))),
					B: isa.I(int32(90 + r.Intn(4)))}
			case 3: // fixed destination: duplicate-dest words stay unfused
				in.Ops[fu] = isa.DataOp{Op: isa.OpIAdd, A: isa.R(uint8(r.Intn(12))),
					B: isa.I(1), Dest: 5}
			}
		}
	}
	return p
}

// runVLIWFusion executes p without a tracer, with the same deterministic
// register/memory image as runVLIWEngine.
func runVLIWFusion(t *testing.T, p *Program, cfg Config, engine core.EngineKind, disableFusion bool) (*Machine, *mem.Shared, uint64, error) {
	t.Helper()
	// Only the lower half is initialized: the upper half stays outside
	// the image's backed prefix, so the hazards planted near the end of
	// memory cover loads past the prefix and stores that grow it.
	memory := mem.NewShared(1024)
	for i := uint32(0); i < 512; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*5-900))
	}
	cfg.Engine = engine
	cfg.Memory = memory
	cfg.DisableFusion = disableFusion
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := uint8(0); i < 12; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
	}
	cycles, runErr := m.Run()
	return m, memory, cycles, runErr
}

func assertVLIWAgree(t *testing.T, tag, aName, bName string,
	am *Machine, amem *mem.Shared, acyc uint64, aerr error,
	bm *Machine, bmem *mem.Shared, bcyc uint64, berr error) {
	t.Helper()
	if acyc != bcyc {
		t.Fatalf("%s: cycle divergence: %s %d, %s %d (%v vs %v)", tag, aName, acyc, bName, bcyc, aerr, berr)
	}
	if errText(aerr) != errText(berr) {
		t.Fatalf("%s: error divergence:\n%s: %s\n%s: %s", tag, aName, errText(aerr), bName, errText(berr))
	}
	if errText(am.Err()) != errText(bm.Err()) {
		t.Fatalf("%s: latched error divergence", tag)
	}
	if am.Done() != bm.Done() || am.PC(0) != bm.PC(0) {
		t.Fatalf("%s: sequencer divergence: %s done=%v pc=%d, %s done=%v pc=%d",
			tag, aName, am.Done(), am.PC(0), bName, bm.Done(), bm.PC(0))
	}
	if !reflect.DeepEqual(am.Stats(), bm.Stats()) {
		t.Fatalf("%s: stats divergence:\n%s: %+v\n%s: %+v", tag, aName, am.Stats(), bName, bm.Stats())
	}
	if am.Regs().Stats() != bm.Regs().Stats() {
		t.Fatalf("%s: regfile stats divergence:\n%s: %+v\n%s: %+v",
			tag, aName, am.Regs().Stats(), bName, bm.Regs().Stats())
	}
	for reg := 0; reg < isa.NumRegs; reg++ {
		if am.Regs().Peek(uint8(reg)) != bm.Regs().Peek(uint8(reg)) {
			t.Fatalf("%s: r%d divergence", tag, reg)
		}
	}
	al, as := amem.Counters()
	bl, bs := bmem.Counters()
	if al != bl || as != bs {
		t.Fatalf("%s: memory counter divergence: %s %d/%d, %s %d/%d", tag, aName, al, as, bName, bl, bs)
	}
	for a := uint32(0); a < 1024; a++ {
		if amem.Peek(a) != bmem.Peek(a) {
			t.Fatalf("%s: M(%d) divergence", tag, a)
		}
	}
}

// TestDifferentialVLIWFusedVsUnfused runs 240 random programs (mostly
// fusibility-biased, with hazards buried in run middles) fused, unfused,
// and on the reference engine, and requires identical outcomes.
func TestDifferentialVLIWFusedVsUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(9119))
	for iter := 0; iter < 240; iter++ {
		var p *Program
		if iter%3 == 0 {
			p = randomVLIWProgram(r)
		} else {
			p = randomFusibleVLIWProgram(r)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v", iter, err)
		}
		cfg := Config{MaxCycles: 1000, TolerateConflicts: r.Intn(2) == 0}
		tag := fmt.Sprintf("iter %d (tolerate=%v)", iter, cfg.TolerateConflicts)
		fm, fmem, fcyc, ferr := runVLIWFusion(t, p, cfg, core.EngineFast, false)
		um, umem, ucyc, uerr := runVLIWFusion(t, p, cfg, core.EngineFast, true)
		rm, rmem, rcyc, rerr := runVLIWFusion(t, p, cfg, core.EngineReference, false)
		assertVLIWAgree(t, tag, "fused", "unfused", fm, fmem, fcyc, ferr, um, umem, ucyc, uerr)
		assertVLIWAgree(t, tag, "fused", "reference", fm, fmem, fcyc, ferr, rm, rmem, rcyc, rerr)
	}
}

// TestVLIWStepNMatchesStepLoop holds StepN with awkward batch sizes to
// the same outcome as a strict one-cycle Step loop.
func TestVLIWStepNMatchesStepLoop(t *testing.T) {
	r := rand.New(rand.NewSource(515))
	for iter := 0; iter < 60; iter++ {
		p := randomFusibleVLIWProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		cfg := Config{MaxCycles: 1000, TolerateConflicts: r.Intn(2) == 0}

		build := func() (*Machine, *mem.Shared) {
			memory := mem.NewShared(1024)
			for i := uint32(0); i < 1024; i++ {
				memory.Poke(i, isa.WordFromInt(int32(i)*5-900))
			}
			c := cfg
			c.Memory = memory
			m, err := New(p, c)
			if err != nil {
				t.Fatalf("iter %d: New: %v", iter, err)
			}
			for i := uint8(0); i < 12; i++ {
				m.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
			}
			return m, memory
		}

		bm, bmem := build()
		var berr error
		for {
			running, err := bm.StepN(uint64(1 + (bm.Cycle() % 5)))
			if err != nil {
				berr = err
				break
			}
			if !running {
				break
			}
		}

		sm, smem := build()
		var serr error
		for {
			running, err := sm.Step()
			if err != nil {
				serr = err
				break
			}
			if !running {
				break
			}
		}
		assertVLIWAgree(t, fmt.Sprintf("iter %d", iter), "stepN", "step",
			bm, bmem, bm.Cycle(), berr, sm, smem, sm.Cycle(), serr)
	}
}

// TestVLIWFusionEngages guards against the net silently testing
// nothing: a straight-line program must produce nonzero run lengths and
// run to the right result. That the lockstep machine then takes the
// fused path is asserted on the machine's internals by core's
// TestLockstepFusionEngages.
func TestVLIWFusionEngages(t *testing.T) {
	n := 6
	p := &Program{NumFU: 4, Instrs: make([]Instruction, n)}
	for addr := 0; addr < n; addr++ {
		in := &p.Instrs[addr]
		for fu := 0; fu < 4; fu++ {
			in.Ops[fu] = isa.DataOp{Op: isa.OpIAdd, A: isa.R(uint8(fu)), B: isa.I(1), Dest: uint8(fu)}
		}
		if addr == n-1 {
			in.Ctrl = isa.Halt()
		} else {
			in.Ctrl = isa.Goto(isa.Addr(addr + 1))
		}
	}
	d, err := Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.FusibleWords(); got != n-1 {
		t.Fatalf("FusibleWords = %d, want %d", got, n-1)
	}
	m, err := New(nil, Config{Decoded: d})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run()
	if err != nil || cycles != uint64(n) {
		t.Fatalf("Run = %d, %v; want %d cycles", cycles, err, n)
	}
	if got := m.Regs().Peek(2).Int(); got != int32(n) {
		t.Fatalf("r2 = %d, want %d", got, n)
	}
}
