package vliw

import (
	"strings"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// vprog assembles a VLIW program from rows of (ops..., ctrl).
func vprog(t *testing.T, numFU int, rows []Instruction) *Program {
	t.Helper()
	p := &Program{Instrs: rows, NumFU: numFU}
	if err := p.Validate(); err != nil {
		t.Fatalf("vprog: %v", err)
	}
	return p
}

// mustPredecode builds p's lockstep table.
func mustPredecode(t *testing.T, p *Program) *core.Decoded {
	t.Helper()
	d, err := Predecode(p)
	if err != nil {
		t.Fatalf("Predecode: %v", err)
	}
	return d
}

func row(ctrl isa.CtrlOp, ops ...isa.DataOp) Instruction {
	var in Instruction
	copy(in.Ops[:], ops)
	in.Ctrl = ctrl
	return in
}

func TestVLIWStraightLine(t *testing.T) {
	p := vprog(t, 2, []Instruction{
		row(isa.Goto(1),
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(2), B: isa.I(3), Dest: 1},
			isa.DataOp{Op: isa.OpIMult, A: isa.I(4), B: isa.I(5), Dest: 2}),
		row(isa.Goto(2),
			isa.DataOp{Op: isa.OpIAdd, A: isa.R(1), B: isa.R(2), Dest: 3}),
		row(isa.Halt()),
	})
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 3 {
		t.Fatalf("cycles = %d", cycles)
	}
	if got := m.Regs().Peek(3).Int(); got != 25 {
		t.Fatalf("r3 = %d, want 25", got)
	}
}

func TestVLIWConditionalBranch(t *testing.T) {
	// Loop: r1 counts down from 3; single sequencer branch per cycle.
	p := vprog(t, 1, []Instruction{
		row(isa.Goto(1), isa.DataOp{Op: isa.OpIAdd, A: isa.I(3), B: isa.I(0), Dest: 1}),
		row(isa.Goto(2), isa.DataOp{Op: isa.OpISub, A: isa.R(1), B: isa.I(1), Dest: 1}),
		row(isa.Goto(3), isa.DataOp{Op: isa.OpGt, A: isa.R(1), B: isa.I(0)}),
		row(isa.IfCC(0, 1, 4)),
		row(isa.Halt()),
	})
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Regs().Peek(1).Int(); got != 0 {
		t.Fatalf("r1 = %d", got)
	}
	s := m.Stats()
	if s.CondBranches != 3 || s.TakenBranches != 2 {
		t.Fatalf("branches = %d/%d, want 2/3", s.TakenBranches, s.CondBranches)
	}
}

func TestVLIWRejectsSyncConditions(t *testing.T) {
	p := &Program{
		Instrs: []Instruction{row(isa.IfAllSS(0, 0))},
		NumFU:  1,
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "synchronization") {
		t.Fatalf("err = %v, want sync-condition rejection", err)
	}
}

func TestVLIWCCTimingMatchesXIMD(t *testing.T) {
	// Compare and branch in the same instruction: the branch must see the
	// registered (stale) CC, as on XIMD.
	p := vprog(t, 1, []Instruction{
		row(isa.IfCC(0, 2, 1), isa.DataOp{Op: isa.OpLt, A: isa.I(1), B: isa.I(2)}),
		row(isa.IfCC(0, 3, 2)), // now CC is visible
		row(isa.Halt()),        // wrong path
		row(isa.Goto(4), isa.DataOp{Op: isa.OpIAdd, A: isa.I(9), B: isa.I(0), Dest: 1}),
		row(isa.Halt()),
	})
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Regs().Peek(1).Int(); got != 9 {
		t.Fatalf("r1 = %d, want 9 (registered CC semantics)", got)
	}
}

func TestRoundTripXIMDConversion(t *testing.T) {
	p := vprog(t, 2, []Instruction{
		row(isa.Goto(1),
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(1), B: isa.I(2), Dest: 1},
			isa.DataOp{Op: isa.OpISub, A: isa.I(5), B: isa.I(3), Dest: 2}),
		row(isa.Halt()),
	})
	x := p.ToXIMD()
	if style := core.Classify(x); !style.VLIW {
		t.Fatalf("ToXIMD output not VLIW-style: %+v", style)
	}
	back, err := FromXIMD(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Instrs) != len(p.Instrs) || back.NumFU != p.NumFU {
		t.Fatal("geometry changed in round trip")
	}
	for addr := range p.Instrs {
		if back.Instrs[addr] != p.Instrs[addr] {
			t.Fatalf("addr %d changed: %+v vs %+v", addr, back.Instrs[addr], p.Instrs[addr])
		}
	}
}

func TestFromXIMDRejectsDivergentControl(t *testing.T) {
	b := isa.NewBuilder(2)
	b.Set(0, 0, isa.Parcel{Data: isa.Nop, Ctrl: isa.Goto(1)})
	b.Set(0, 1, isa.Parcel{Data: isa.Nop, Ctrl: isa.Goto(0)}) // different target
	b.Set(1, 0, isa.HaltParcel)
	b.Set(1, 1, isa.HaltParcel)
	if _, err := FromXIMD(b.MustBuild()); err == nil {
		t.Fatal("FromXIMD accepted non-VLIW program")
	}
}

// TestXIMDEquivalence runs the same VLIW program natively and as an XIMD
// emulation and checks cycle-for-cycle equal results — the Section 2.1
// functional-equivalence claim, executed.
func TestXIMDEquivalence(t *testing.T) {
	p := vprog(t, 2, []Instruction{
		row(isa.Goto(1),
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(10), B: isa.I(0), Dest: 1},
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(0), B: isa.I(0), Dest: 2}),
		row(isa.Goto(2),
			isa.DataOp{Op: isa.OpISub, A: isa.R(1), B: isa.I(1), Dest: 1},
			isa.DataOp{Op: isa.OpIAdd, A: isa.R(2), B: isa.R(1), Dest: 2}),
		row(isa.Goto(3),
			isa.DataOp{Op: isa.OpGt, A: isa.R(1), B: isa.I(0)}),
		row(isa.IfCC(0, 1, 4)),
		row(isa.Halt()),
	})
	vm, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vCycles, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}

	xm, err := core.New(p.ToXIMD(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	xCycles, err := xm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if vCycles != xCycles {
		t.Fatalf("cycle counts differ: vliw %d, ximd %d", vCycles, xCycles)
	}
	for reg := uint8(1); reg <= 2; reg++ {
		if vm.Regs().Peek(reg) != xm.Regs().Peek(reg) {
			t.Fatalf("r%d differs: vliw %d, ximd %d", reg,
				vm.Regs().Peek(reg).Int(), xm.Regs().Peek(reg).Int())
		}
	}
}

func TestVLIWMemoryOps(t *testing.T) {
	shared := mem.NewShared(128)
	shared.PokeInts(50, 7)
	p := vprog(t, 1, []Instruction{
		row(isa.Goto(1), isa.DataOp{Op: isa.OpLoad, A: isa.I(50), B: isa.I(0), Dest: 1}),
		row(isa.Goto(2), isa.DataOp{Op: isa.OpStore, A: isa.R(1), B: isa.I(51)}),
		row(isa.Halt()),
	})
	m, err := New(p, Config{Memory: shared})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if shared.Peek(51).Int() != 7 {
		t.Fatalf("M(51) = %d", shared.Peek(51).Int())
	}
}

func TestVLIWMaxCycles(t *testing.T) {
	p := vprog(t, 1, []Instruction{row(isa.Goto(0))})
	m, err := New(p, Config{MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("runaway program not stopped")
	}
}

func TestVLIWTracer(t *testing.T) {
	var pcs []isa.Addr
	tr := tracerFunc(func(rec *core.CycleRecord) {
		if len(rec.PC) != 1 {
			t.Errorf("cycle %d traced %d PCs, want the one sequencer's", rec.Cycle, len(rec.PC))
			return
		}
		pcs = append(pcs, rec.PC[0])
	})
	p := vprog(t, 1, []Instruction{
		row(isa.Goto(1)),
		row(isa.Goto(2)),
		row(isa.Halt()),
	})
	m, err := New(p, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 3 || pcs[0] != 0 || pcs[1] != 1 || pcs[2] != 2 {
		t.Fatalf("traced PCs = %v", pcs)
	}
}

type tracerFunc func(rec *core.CycleRecord)

func (f tracerFunc) Cycle(rec *core.CycleRecord) { f(rec) }

func TestVLIWStatsUtilization(t *testing.T) {
	p := vprog(t, 4, []Instruction{
		row(isa.Goto(1),
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(1), B: isa.I(1), Dest: 1},
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(1), B: isa.I(1), Dest: 2}),
		row(isa.Halt()),
	})
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.TotalDataOps() != 2 {
		t.Fatalf("ops = %d", s.TotalDataOps())
	}
	if s.Utilization() != 0.25 { // 2 useful ops over 2 cycles * 4 FUs
		t.Fatalf("utilization = %g", s.Utilization())
	}
	if s.OpsPerCycle() != 1.0 {
		t.Fatalf("ops/cycle = %g", s.OpsPerCycle())
	}
}
