package vliw

import (
	"math/rand"
	"reflect"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Differential fuzzing: random VLIW programs executed on the lockstep
// machine and as XIMD emulations (control duplicated per parcel,
// Section 3.1) must agree on every architectural outcome — cycle count,
// all 256 registers, memory, and the statistics, except that the XIMD
// evaluates a word's conditional branch once per FU. Programs use only
// forward branches, so they terminate by construction.

func randomVLIWProgram(r *rand.Rand) *Program {
	numFU := 1 + r.Intn(isa.NumFU)
	n := 3 + r.Intn(24)
	p := &Program{NumFU: numFU, Instrs: make([]Instruction, n)}
	// A small register window keeps values flowing between instructions.
	reg := func() uint8 { return uint8(r.Intn(12)) }
	operand := func() isa.Operand {
		if r.Intn(2) == 0 {
			return isa.R(reg())
		}
		return isa.I(int32(r.Intn(2001) - 1000))
	}
	safeOps := []isa.Opcode{
		isa.OpIAdd, isa.OpISub, isa.OpIMult, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSra, isa.OpINeg, isa.OpIAbs, isa.OpNot,
		isa.OpFAdd, isa.OpFMult, isa.OpItoF,
	}
	cmpOps := []isa.Opcode{isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpGt, isa.OpGe}

	for addr := 0; addr < n; addr++ {
		in := &p.Instrs[addr]
		usedDest := map[uint8]bool{}
		for fu := 0; fu < numFU; fu++ {
			switch r.Intn(6) {
			case 0:
				in.Ops[fu] = isa.Nop
			case 1:
				// Compare sets this FU's own condition code: never a
				// register conflict.
				op := cmpOps[r.Intn(len(cmpOps))]
				in.Ops[fu] = isa.DataOp{Op: op, A: operand(), B: operand()}
			case 2:
				// Memory: load from or store to a small private region
				// per FU to avoid same-cycle store conflicts.
				base := int32(100 + fu*16 + r.Intn(16))
				if r.Intn(2) == 0 {
					d := reg()
					for usedDest[d] {
						d = reg()
					}
					usedDest[d] = true
					in.Ops[fu] = isa.DataOp{Op: isa.OpLoad, A: isa.I(base), B: isa.I(0), Dest: d}
				} else {
					in.Ops[fu] = isa.DataOp{Op: isa.OpStore, A: operand(), B: isa.I(base)}
				}
			default:
				op := safeOps[r.Intn(len(safeOps))]
				d := reg()
				for usedDest[d] {
					d = reg()
				}
				usedDest[d] = true
				in.Ops[fu] = isa.DataOp{Op: op, A: operand(), B: operand(), Dest: d}
			}
		}
		// Control: forward only.
		if addr == n-1 {
			in.Ctrl = isa.Halt()
			continue
		}
		fwd := func() isa.Addr { return isa.Addr(addr + 1 + r.Intn(n-addr-1)) }
		switch r.Intn(4) {
		case 0:
			in.Ctrl = isa.Goto(fwd())
		case 1:
			in.Ctrl = isa.Halt()
		default:
			cc := uint8(r.Intn(numFU))
			if r.Intn(2) == 0 {
				in.Ctrl = isa.IfCC(cc, fwd(), fwd())
			} else {
				in.Ctrl = isa.IfNotCC(cc, fwd(), fwd())
			}
		}
	}
	return p
}

func TestDifferentialVLIWvsXIMD(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 300; iter++ {
		p := randomVLIWProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v", iter, err)
		}
		vMem := mem.NewShared(1024)
		vm, err := New(p, Config{Memory: vMem, MaxCycles: 1000})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		vCycles, vErr := vm.Run()

		xMem := mem.NewShared(1024)
		xm, err := core.New(p.ToXIMD(), core.Config{Memory: xMem, MaxCycles: 1000})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		xCycles, xErr := xm.Run()

		if (vErr == nil) != (xErr == nil) {
			t.Fatalf("iter %d: error divergence: vliw %v, ximd %v", iter, vErr, xErr)
		}
		if vErr != nil {
			continue // both failed identically (should not happen with safe ops)
		}
		if vCycles != xCycles {
			t.Fatalf("iter %d: cycles %d vs %d", iter, vCycles, xCycles)
		}
		vs, xs := vm.Stats(), xm.Stats()
		fus := uint64(p.NumFU)
		if xs.CondBranches != vs.CondBranches*fus || xs.TakenBranches != vs.TakenBranches*fus {
			t.Fatalf("iter %d: branches vliw %d/%d, ximd %d/%d; want ximd = %d × vliw",
				iter, vs.TakenBranches, vs.CondBranches, xs.TakenBranches, xs.CondBranches, fus)
		}
		xs.CondBranches, xs.TakenBranches = vs.CondBranches, vs.TakenBranches
		if !reflect.DeepEqual(vs, xs) {
			t.Fatalf("iter %d: stats diverge:\nvliw: %+v\nximd: %+v", iter, vs, xs)
		}
		for reg := 0; reg < isa.NumRegs; reg++ {
			if vm.Regs().Peek(uint8(reg)) != xm.Regs().Peek(uint8(reg)) {
				t.Fatalf("iter %d: r%d = %#x vs %#x", iter, reg,
					uint32(vm.Regs().Peek(uint8(reg))), uint32(xm.Regs().Peek(uint8(reg))))
			}
		}
		for a := uint32(0); a < 256; a++ {
			if vMem.Peek(100+a) != xMem.Peek(100+a) {
				t.Fatalf("iter %d: M(%d) differs", iter, 100+a)
			}
		}
	}
}
