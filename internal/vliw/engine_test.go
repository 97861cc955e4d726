package vliw

import (
	"math/rand"
	"reflect"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Differential testing of the lockstep machine's fast engine against
// its reference interpreter, mirroring the core package's engine
// equivalence net: random programs must produce identical cycle counts,
// statistics, traces, registers, and memory on both engines.

// vliwCapture retains a deep copy of every lockstep cycle record.
type vliwCapture struct{ recs []core.CycleRecord }

func (c *vliwCapture) Cycle(rec *core.CycleRecord) {
	cp := *rec
	cp.PC = append([]isa.Addr(nil), rec.PC...)
	cp.CC = append([]bool(nil), rec.CC...)
	cp.Parcels = append([]isa.Parcel(nil), rec.Parcels...)
	cp.Stalled = append([]bool(nil), rec.Stalled...)
	c.recs = append(c.recs, cp)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func runVLIWEngine(t *testing.T, p *Program, engine core.EngineKind) (*Machine, *vliwCapture, *mem.Shared, uint64, error) {
	t.Helper()
	memory := mem.NewShared(1024)
	for i := uint32(0); i < 1024; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*5-900))
	}
	tr := &vliwCapture{}
	m, err := New(p, Config{Engine: engine, Memory: memory, MaxCycles: 1000, Tracer: tr})
	if err != nil {
		t.Fatalf("New(engine=%d): %v", engine, err)
	}
	for i := uint8(0); i < 12; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
	}
	cycles, runErr := m.Run()
	return m, tr, memory, cycles, runErr
}

func TestDifferentialVLIWFastVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for iter := 0; iter < 300; iter++ {
		p := randomVLIWProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v", iter, err)
		}
		fm, ftr, fmem, fcyc, ferr := runVLIWEngine(t, p, core.EngineFast)
		rm, rtr, rmem, rcyc, rerr := runVLIWEngine(t, p, core.EngineReference)
		if fcyc != rcyc {
			t.Fatalf("iter %d: cycle divergence: fast %d, reference %d", iter, fcyc, rcyc)
		}
		if errText(ferr) != errText(rerr) {
			t.Fatalf("iter %d: error divergence:\nfast: %s\nref:  %s", iter, errText(ferr), errText(rerr))
		}
		if fm.Done() != rm.Done() || fm.PC(0) != rm.PC(0) {
			t.Fatalf("iter %d: sequencer divergence: fast done=%v pc=%d, reference done=%v pc=%d",
				iter, fm.Done(), fm.PC(0), rm.Done(), rm.PC(0))
		}
		if !reflect.DeepEqual(fm.Stats(), rm.Stats()) {
			t.Fatalf("iter %d: stats divergence:\nfast: %+v\nref:  %+v", iter, fm.Stats(), rm.Stats())
		}
		if fm.Regs().Stats() != rm.Regs().Stats() {
			t.Fatalf("iter %d: regfile stats divergence:\nfast: %+v\nref:  %+v",
				iter, fm.Regs().Stats(), rm.Regs().Stats())
		}
		if !reflect.DeepEqual(ftr.recs, rtr.recs) {
			t.Fatalf("iter %d: trace divergence (%d vs %d records)", iter, len(ftr.recs), len(rtr.recs))
		}
		for reg := 0; reg < isa.NumRegs; reg++ {
			if fm.Regs().Peek(uint8(reg)) != rm.Regs().Peek(uint8(reg)) {
				t.Fatalf("iter %d: r%d divergence", iter, reg)
			}
		}
		fl, fs := fmem.Counters()
		rl, rs := rmem.Counters()
		if fl != rl || fs != rs {
			t.Fatalf("iter %d: memory counter divergence: fast %d/%d, reference %d/%d", iter, fl, fs, rl, rs)
		}
		for a := uint32(0); a < 1024; a++ {
			if fmem.Peek(a) != rmem.Peek(a) {
				t.Fatalf("iter %d: M(%d) divergence", iter, a)
			}
		}
	}
}

// allocVLIWProgram is an endless two-instruction loop touching ALU,
// compare, load, and store paths on a full-width machine.
func allocVLIWProgram() *Program {
	p := &Program{NumFU: isa.NumFU, Instrs: make([]Instruction, 2)}
	for addr := 0; addr < 2; addr++ {
		in := &p.Instrs[addr]
		for fu := 0; fu < isa.NumFU; fu++ {
			switch fu % 5 {
			case 0:
				in.Ops[fu] = isa.DataOp{Op: isa.OpIAdd, A: isa.R(uint8(fu)), B: isa.I(1), Dest: uint8(fu)}
			case 1:
				in.Ops[fu] = isa.DataOp{Op: isa.OpLoad, A: isa.I(int32(10 + fu)), B: isa.I(0), Dest: uint8(fu)}
			case 2:
				in.Ops[fu] = isa.DataOp{Op: isa.OpStore, A: isa.R(uint8(fu)), B: isa.I(int32(40 + fu))}
			case 3:
				in.Ops[fu] = isa.DataOp{Op: isa.OpLt, A: isa.R(uint8(fu)), B: isa.I(50)}
			default:
				in.Ops[fu] = isa.Nop
			}
		}
		in.Ctrl = isa.Goto(isa.Addr(1 - addr))
	}
	return p
}

func testVLIWStepAllocs(t *testing.T, engine core.EngineKind) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, err := New(allocVLIWProgram(), Config{Engine: engine, Memory: mem.NewShared(1024), MaxCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(512, func() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("engine %d: %v allocs per steady-state cycle, want 0", engine, avg)
	}
}

func TestVLIWStepAllocsFast(t *testing.T)      { testVLIWStepAllocs(t, core.EngineFast) }
func TestVLIWStepAllocsReference(t *testing.T) { testVLIWStepAllocs(t, core.EngineReference) }

// TestVLIWStepNAllocsFused is the 0-alloc guard for the fused lockstep
// path: steady-state StepN with superop runs engaged must allocate
// nothing.
func TestVLIWStepNAllocsFused(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := allocVLIWProgram()
	d := mustPredecode(t, p)
	if d.FusibleWords() == 0 {
		t.Fatal("allocVLIWProgram no longer engages the fused engine")
	}
	m, err := New(p, Config{Memory: mem.NewShared(1024), MaxCycles: 1 << 40, Decoded: d})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepN(128); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(256, func() {
		if running, err := m.StepN(64); err != nil || !running {
			t.Fatalf("StepN stopped: running=%v err=%v", running, err)
		}
	})
	if avg != 0 {
		t.Fatalf("%v allocs per steady-state StepN(64), want 0", avg)
	}
}
