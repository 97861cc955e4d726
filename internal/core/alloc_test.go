package core

import (
	"testing"

	"ximd/internal/isa"
	"ximd/internal/mem"
)

// allocProgram is an endless loop exercising the full datapath — ALU,
// compare, load, store, nop, sync traffic — so the steady-state
// allocation test covers every per-cycle path of Step.
func allocProgram() *isa.Program {
	p := &isa.Program{NumFU: isa.NumFU, Instrs: make([]isa.Instruction, 2)}
	for addr := 0; addr < 2; addr++ {
		for fu := 0; fu < isa.NumFU; fu++ {
			var pc isa.Parcel
			switch fu % 5 {
			case 0:
				pc.Data = isa.DataOp{Op: isa.OpIAdd, A: isa.R(uint8(fu)), B: isa.I(1), Dest: uint8(fu)}
			case 1:
				pc.Data = isa.DataOp{Op: isa.OpLoad, A: isa.I(int32(10 + fu)), B: isa.I(0), Dest: uint8(fu)}
			case 2:
				pc.Data = isa.DataOp{Op: isa.OpStore, A: isa.R(uint8(fu)), B: isa.I(int32(40 + fu))}
			case 3:
				pc.Data = isa.DataOp{Op: isa.OpLt, A: isa.R(uint8(fu)), B: isa.I(50)}
			default:
				pc.Data = isa.Nop
			}
			pc.Ctrl = isa.Goto(isa.Addr(1 - addr))
			if fu == 2 {
				pc.Sync = isa.Done
			}
			p.Instrs[addr][fu] = pc
		}
	}
	return p
}

// testStepAllocs asserts that an error-free steady-state Step allocates
// nothing, after a short warm-up that lets the staged-write and pending-
// store buffers reach capacity.
func testStepAllocs(t *testing.T, engine EngineKind) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, err := New(allocProgram(), Config{Engine: engine, Memory: mem.NewShared(1024), MaxCycles: 1 << 40})
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

func TestStepAllocsFast(t *testing.T)      { testStepAllocs(t, EngineFast) }
func TestStepAllocsReference(t *testing.T) { testStepAllocs(t, EngineReference) }

// TestStepNAllocsFused is the 0-alloc guard for the fused path:
// steady-state StepN with superop runs engaged (observability disabled)
// must allocate nothing. allocProgram's entry word is a one-word superop
// run, so every StepN call passes through fusedRun.
func TestStepNAllocsFused(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, err := New(allocProgram(), Config{Memory: mem.NewShared(1024), MaxCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !m.fuseOK || m.fusibleAt() == 0 {
		t.Fatal("allocProgram no longer engages the fused engine")
	}
	if _, err := m.StepN(128); err != nil { // warm up staged-write buffers
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
