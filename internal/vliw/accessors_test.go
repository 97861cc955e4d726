package vliw

import (
	"strings"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
)

func TestAccessorsAndValidation(t *testing.T) {
	p := vprog(t, 2, []Instruction{
		row(isa.Goto(1),
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(1), B: isa.I(2), Dest: 1}),
		row(isa.Halt()),
	})
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Done() || m.Cycle() != 0 || m.PC(0) != 0 {
		t.Fatal("fresh machine state wrong")
	}
	if m.Memory() == nil {
		t.Fatal("Memory() nil")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Done() || m.Cycle() != 2 {
		t.Fatalf("done=%v cycle=%d", m.Done(), m.Cycle())
	}
	// Step after done is a no-op.
	running, err := m.Step()
	if running || err != nil {
		t.Fatalf("Step after done: %v %v", running, err)
	}
	// Zero-cycle stats are well-defined.
	var s core.Stats
	if s.Utilization() != 0 || s.OpsPerCycle() != 0 {
		t.Fatal("zero stats not zero")
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		p    *Program
		want string
	}{
		{&Program{NumFU: 0, Instrs: []Instruction{row(isa.Halt())}}, "NumFU"},
		{&Program{NumFU: 1}, "empty"},
		{&Program{NumFU: 1, Entry: 5, Instrs: []Instruction{row(isa.Halt())}}, "entry"},
		{&Program{NumFU: 1, Instrs: []Instruction{row(isa.Goto(7))}}, "target"},
		{&Program{NumFU: 1, Instrs: []Instruction{{
			Ops:  [isa.NumFU]isa.DataOp{{Op: isa.Opcode(99)}},
			Ctrl: isa.Halt(),
		}}}, "opcode"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate = %v, want substring %q", err, c.want)
		}
	}
}

func TestVLIWTolerateConflicts(t *testing.T) {
	p := vprog(t, 2, []Instruction{
		row(isa.Goto(1),
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(1), B: isa.I(0), Dest: 9},
			isa.DataOp{Op: isa.OpIAdd, A: isa.I(2), B: isa.I(0), Dest: 9}),
		row(isa.Goto(2),
			isa.DataOp{Op: isa.OpStore, A: isa.I(1), B: isa.I(50)},
			isa.DataOp{Op: isa.OpStore, A: isa.I(2), B: isa.I(50)}),
		row(isa.Halt()),
	})
	if m, err := New(p, Config{}); err == nil {
		if _, err := m.Run(); err == nil {
			t.Fatal("conflicts not reported in strict mode")
		}
	}
	m, err := New(p, Config{TolerateConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.RegConflicts != 1 || s.MemConflicts != 1 {
		t.Fatalf("conflicts = %d/%d", s.RegConflicts, s.MemConflicts)
	}
	if m.Regs().Peek(9).Int() != 2 {
		t.Fatalf("r9 = %d (last-staged-wins)", m.Regs().Peek(9).Int())
	}
}

func TestVLIWDivideByZeroFaults(t *testing.T) {
	p := vprog(t, 1, []Instruction{
		row(isa.Goto(1), isa.DataOp{Op: isa.OpIDiv, A: isa.I(1), B: isa.I(0), Dest: 1}),
		row(isa.Halt()),
	})
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("err = %v", err)
	}
}
