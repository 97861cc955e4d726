package regfile

import (
	"errors"
	"testing"
	"testing/quick"

	"ximd/internal/isa"
)

func TestReadSeesStartOfCycleState(t *testing.T) {
	f := New()
	f.Poke(5, isa.WordFromInt(10))
	f.BeginCycle()
	if err := f.Write(0, 5, isa.WordFromInt(99)); err != nil {
		t.Fatal(err)
	}
	v, err := f.Read(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 10 {
		t.Fatalf("read during cycle = %d, want pre-cycle value 10", v.Int())
	}
	f.Commit()
	if f.Peek(5).Int() != 99 {
		t.Fatalf("after commit = %d, want 99", f.Peek(5).Int())
	}
}

func TestWriteConflictDetected(t *testing.T) {
	f := New()
	f.BeginCycle()
	if err := f.Write(0, 7, isa.WordFromInt(1)); err != nil {
		t.Fatal(err)
	}
	err := f.Write(3, 7, isa.WordFromInt(2))
	var wc *WriteConflictError
	if !errors.As(err, &wc) {
		t.Fatalf("err = %v, want WriteConflictError", err)
	}
	if wc.Reg != 7 || wc.FirstFU != 0 || wc.SecondFU != 3 {
		t.Fatalf("conflict detail = %+v", wc)
	}
	f.Commit()
	// Tolerant mode: highest FU number wins deterministically.
	if f.Peek(7).Int() != 2 {
		t.Fatalf("conflict resolution = %d, want 2 (highest FU)", f.Peek(7).Int())
	}
	if f.Stats().WriteConflict != 1 {
		t.Fatalf("conflict count = %d", f.Stats().WriteConflict)
	}
}

func TestDistinctRegWritesNoConflict(t *testing.T) {
	f := New()
	f.BeginCycle()
	for fu := 0; fu < 8; fu++ {
		if err := f.Write(fu, uint8(fu), isa.WordFromInt(int32(fu*10))); err != nil {
			t.Fatalf("fu %d: %v", fu, err)
		}
	}
	f.Commit()
	for fu := 0; fu < 8; fu++ {
		if f.Peek(uint8(fu)).Int() != int32(fu*10) {
			t.Fatalf("r%d = %d", fu, f.Peek(uint8(fu)).Int())
		}
	}
}

func TestReadPortOverflow(t *testing.T) {
	f := New()
	f.BeginCycle()
	if _, err := f.Read(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(2, 1); err != nil {
		t.Fatal(err)
	}
	_, err := f.Read(2, 2)
	var po *PortOverflowError
	if !errors.As(err, &po) || po.FU != 2 || po.Kind != "read" {
		t.Fatalf("err = %v, want read PortOverflowError on FU2", err)
	}
}

func TestWritePortOverflow(t *testing.T) {
	f := New()
	f.BeginCycle()
	if err := f.Write(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	err := f.Write(1, 1, 0)
	var po *PortOverflowError
	if !errors.As(err, &po) || po.Kind != "write" {
		t.Fatalf("err = %v, want write PortOverflowError", err)
	}
}

func TestBeginCycleResetsPorts(t *testing.T) {
	f := New()
	for cycle := 0; cycle < 3; cycle++ {
		f.BeginCycle()
		for fu := 0; fu < 8; fu++ {
			if _, err := f.Read(fu, 0); err != nil {
				t.Fatalf("cycle %d fu %d read 1: %v", cycle, fu, err)
			}
			if _, err := f.Read(fu, 1); err != nil {
				t.Fatalf("cycle %d fu %d read 2: %v", cycle, fu, err)
			}
			if err := f.Write(fu, uint8(fu), 0); err != nil {
				t.Fatalf("cycle %d fu %d write: %v", cycle, fu, err)
			}
		}
		f.Commit()
	}
	s := f.Stats()
	if s.Cycles != 3 || s.TotalReads != 48 || s.TotalWrites != 24 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PeakReads != 16 || s.PeakWrites != 8 {
		t.Fatalf("peaks = %d reads, %d writes; want 16, 8 (the paper's port budget)", s.PeakReads, s.PeakWrites)
	}
}

// Property: committing N distinct-register writes makes each visible, and
// reads never observe half-committed state.
func TestCommitAtomicityProperty(t *testing.T) {
	fn := func(vals [8]int32) bool {
		f := New()
		f.BeginCycle()
		for fu := 0; fu < 8; fu++ {
			if err := f.Write(fu, uint8(100+fu), isa.WordFromInt(vals[fu])); err != nil {
				return false
			}
			// Reads during the cycle still see zero.
			if f.Peek(uint8(100+fu)) != 0 {
				return false
			}
		}
		f.Commit()
		for fu := 0; fu < 8; fu++ {
			if f.Peek(uint8(100+fu)).Int() != vals[fu] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestComposeMOSISForXIMD1(t *testing.T) {
	c, err := Compose(MOSISChip, XIMD1Machine)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "Two chips can be wired in parallel ... to provide 16
	// reads and 8 writes" and "a minimum requirement of 32 register file
	// chips for the proposed prototype architecture".
	if c.ParallelChips != 2 {
		t.Errorf("ParallelChips = %d, want 2", c.ParallelChips)
	}
	if c.BitSlices != 16 {
		t.Errorf("BitSlices = %d, want 16 (32 bits / 2 bits per chip)", c.BitSlices)
	}
	if c.TotalChips != 32 {
		t.Errorf("TotalChips = %d, want 32 (paper's minimum)", c.TotalChips)
	}
	if c.ReadPorts != 16 || c.WritePorts != 8 {
		t.Errorf("composed ports = %dR/%dW, want 16R/8W", c.ReadPorts, c.WritePorts)
	}
	if got := c.TotalTransistors(MOSISChip); got != 32*70000 {
		t.Errorf("TotalTransistors = %d", got)
	}
}

func TestComposeRejectsInsufficientWritePorts(t *testing.T) {
	weak := MOSISChip
	weak.WritePorts = 4
	if _, err := Compose(weak, XIMD1Machine); err == nil {
		t.Fatal("Compose accepted a chip with too few write ports")
	}
}

func TestComposeRejectsShallowChip(t *testing.T) {
	shallow := MOSISChip
	shallow.Registers = 128
	if _, err := Compose(shallow, XIMD1Machine); err == nil {
		t.Fatal("Compose accepted a chip with too few registers")
	}
}

func TestComposeRejectsInvalidChip(t *testing.T) {
	if _, err := Compose(ChipSpec{}, XIMD1Machine); err == nil {
		t.Fatal("Compose accepted a zero chip spec")
	}
}
