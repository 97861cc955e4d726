package core

import (
	"ximd/internal/isa"
)

// This file implements the pre-decode layer of the fast execution engine.
// At machine construction the whole program is decoded once into a flat
// table of compact micro-ops — operand kinds resolved, the opcode's
// structural class baked into flag bits, and branch conditions compiled
// to bitmask compares over packed CC/SS vectors — so the per-cycle
// interpreter loop never re-derives any static property of a parcel.
// Lockstep (VLIW) machines run from the same table.

// DecodedOp flag bits. The opcode's structural class (isa.ClassOf) and
// the operand kinds are resolved at decode time into these flags so the
// execution loop tests single bits instead of re-classifying.
const (
	flagReadsA uint8 = 1 << iota
	flagReadsB
	flagWritesReg
	flagWritesCC
	flagAImm // operand A is an immediate (AImm), else a register (AReg)
	flagBImm // operand B is an immediate (BImm), else a register (BReg)
	flagNop  // the operation is an explicit nop (statistics fast path)
)

// DecodedOp is the pre-decoded form of one data-path operation: the
// opcode, resolved operand sources, and the structural class as flags.
type DecodedOp struct {
	Flags      uint8
	Op         isa.Opcode
	AReg, BReg uint8
	Dest       uint8
	AImm, BImm isa.Word
}

// ReadsA reports whether the operation reads source operand A.
func (u *DecodedOp) ReadsA() bool { return u.Flags&flagReadsA != 0 }

// ReadsB reports whether the operation reads source operand B.
func (u *DecodedOp) ReadsB() bool { return u.Flags&flagReadsB != 0 }

// WritesReg reports whether the operation writes register Dest.
func (u *DecodedOp) WritesReg() bool { return u.Flags&flagWritesReg != 0 }

// WritesCC reports whether the operation writes the FU's condition code.
func (u *DecodedOp) WritesCC() bool { return u.Flags&flagWritesCC != 0 }

// AIsImm reports whether operand A resolved to an immediate.
func (u *DecodedOp) AIsImm() bool { return u.Flags&flagAImm != 0 }

// BIsImm reports whether operand B resolved to an immediate.
func (u *DecodedOp) BIsImm() bool { return u.Flags&flagBImm != 0 }

// IsNop reports whether the operation is an explicit nop.
func (u *DecodedOp) IsNop() bool { return u.Flags&flagNop != 0 }

// AFromReg reports whether operand A is read from register AReg. When
// false, AImm supplies the operand value — the decoded immediate, or
// zero for operands the class does not read.
func (u *DecodedOp) AFromReg() bool { return u.Flags&(flagReadsA|flagAImm) == flagReadsA }

// BFromReg reports whether operand B is read from register BReg, like
// AFromReg.
func (u *DecodedOp) BFromReg() bool { return u.Flags&(flagReadsB|flagBImm) == flagReadsB }

// DecodeDataOp resolves a data operation into its flat decoded form.
func DecodeDataOp(d isa.DataOp) DecodedOp {
	u := DecodedOp{Op: d.Op, Dest: d.Dest}
	cl := isa.ClassOf(d.Op)
	if cl.ReadsA() {
		u.Flags |= flagReadsA
		if d.A.Kind == isa.Imm {
			u.Flags |= flagAImm
			u.AImm = d.A.Imm
		} else {
			u.AReg = d.A.Reg
		}
	}
	if cl.ReadsB() {
		u.Flags |= flagReadsB
		if d.B.Kind == isa.Imm {
			u.Flags |= flagBImm
			u.BImm = d.B.Imm
		} else {
			u.BReg = d.B.Reg
		}
	}
	if cl.WritesReg() {
		u.Flags |= flagWritesReg
	}
	if cl.WritesCC() {
		u.Flags |= flagWritesCC
	}
	if d.Op == isa.OpNop {
		u.Flags |= flagNop
	}
	return u
}

// CompiledCond is a branch condition compiled to a bitmask compare over
// the packed condition-code and synchronization-signal vectors (bit i of
// cc is CC_i == TRUE, bit i of ss is SS_i == DONE). Every condition kind
// of isa.EvalCond reduces to one of two forms:
//
//	all-form: taken ⇔ (src ^ Xor) & Mask == Mask
//	any-form: taken ⇔ src & Mask != 0
//
// so evaluation is two AND/XOR ops instead of a per-FU loop. Single-bit
// conditions (CC/SS and their negations) are the all-form with a
// one-bit mask; negations set Xor to invert the tested bit.
type CompiledCond struct {
	SS   bool // source is the SS vector (else the CC vector)
	Any  bool // any-form (mask test) instead of all-form (masked equality)
	Mask uint8
	Xor  uint8
}

// Eval evaluates the compiled condition over the packed vectors.
func (c CompiledCond) Eval(cc, ss uint8) bool {
	src := cc
	if c.SS {
		src = ss
	}
	if c.Any {
		return src&c.Mask != 0
	}
	return (src^c.Xor)&c.Mask == c.Mask
}

// CompileCond compiles the condition of a CtrlCond operation for a
// machine with numFU functional units. The result is equivalent to
// isa.EvalCond over the same state: ALL/ANY reductions are bounded to
// the machine's FUs by masking with the full-machine mask, matching the
// reference evaluator's numFU loop bound.
func CompileCond(c isa.CtrlOp, numFU int) CompiledCond {
	full := uint8((1 << numFU) - 1)
	bit := uint8(1) << c.Idx
	switch c.Cond {
	case isa.CondCC:
		return CompiledCond{Mask: bit}
	case isa.CondNotCC:
		return CompiledCond{Mask: bit, Xor: bit}
	case isa.CondSS:
		return CompiledCond{SS: true, Mask: bit}
	case isa.CondNotSS:
		return CompiledCond{SS: true, Mask: bit, Xor: bit}
	case isa.CondAllSS:
		return CompiledCond{SS: true, Mask: full}
	case isa.CondAnySS:
		return CompiledCond{SS: true, Any: true, Mask: full}
	case isa.CondAllSSMask:
		return CompiledCond{SS: true, Mask: c.Mask & full}
	case isa.CondAnySSMask:
		return CompiledCond{SS: true, Any: true, Mask: c.Mask & full}
	}
	// Undefined condition kinds never take the branch, like isa.EvalCond:
	// the any-form with an empty mask is unconditionally false.
	return CompiledCond{Any: true, Mask: 0}
}

// ctrlTag packs the semantically meaningful fields of a control
// operation into one integer such that ctrlTag(a) == ctrlTag(b) exactly
// when a.Equal(b): fields the kind (or condition) does not use are left
// out, so the tag is implicitly normalized. The partition tracker keys
// its split and merge classes on these tags — one integer compare
// instead of a multi-word struct compare.
//
// Layout: bits 0..15 T1, 16..31 T2, 32..39 Idx or Mask, 40..42 Cond,
// 43..44 Kind. Bits 45..63 stay clear for the tracker's split-key
// packing (program counter and SSET id).
func ctrlTag(c isa.CtrlOp) uint64 {
	kind := uint64(c.Kind) << 43
	switch c.Kind {
	case isa.CtrlGoto:
		return kind | uint64(c.T1)
	case isa.CtrlCond:
		tag := kind | uint64(c.Cond)<<40 | uint64(c.T1) | uint64(c.T2)<<16
		switch c.Cond {
		case isa.CondCC, isa.CondNotCC, isa.CondSS, isa.CondNotSS:
			tag |= uint64(c.Idx) << 32
		case isa.CondAllSSMask, isa.CondAnySSMask:
			tag |= uint64(c.Mask) << 32
		}
		return tag
	default: // CtrlHalt and undefined kinds carry no operands
		return kind
	}
}

// stallTag is the transition tag of an FU spending a cycle stalled on an
// in-flight load. Kind value 3 is unused by isa.CtrlKind, so a stall can
// never collide with a real control operation's tag. The program counter
// is folded in so that only FUs stalled at the same address are treated
// as one reconvergence class (mirroring the unconditional-merge rule);
// distinct stalled streams stay split.
func stallTag(pc isa.Addr) uint64 { return uint64(3)<<43 | uint64(pc) }

// uop meta bits: the control kind in the low two bits (isa.CtrlKind is
// 0..2) plus the three per-parcel booleans, packed into one byte so the
// whole uop fits 32 bytes — two per cache line (enforced by
// TestUopSize).
const (
	metaKindMask uint8 = 0b11
	metaSyncDone uint8 = 1 << 2 // parcel drives SS = DONE
	metaSyncCond uint8 = 1 << 3 // branch condition reads the SS network
	metaTrap     uint8 = 1 << 4 // unoccupied slot; executing it is an error
)

// uop is one decoded instruction parcel of the XIMD fast engine: the
// decoded data operation plus the compiled control operation and sync
// signal. The table is indexed [addr*numFU + fu]. The data-operation
// fields mirror DecodedOp but are laid out flat (widest first, meta
// booleans packed into one byte) so the struct is exactly 32 bytes.
type uop struct {
	tag        uint64 // ctrlTag of the parcel's control op (tracker key)
	AImm, BImm isa.Word
	ctrl       CompiledCond
	t1, t2     isa.Addr
	Flags      uint8
	Op         isa.Opcode
	AReg, BReg uint8
	Dest       uint8
	meta       uint8
}

// kind returns the parcel's control kind.
func (u *uop) kind() isa.CtrlKind { return isa.CtrlKind(u.meta & metaKindMask) }

// syncDone reports whether the parcel drives SS = DONE.
func (u *uop) syncDone() bool { return u.meta&metaSyncDone != 0 }

// syncCond reports whether the branch condition reads the SS network
// (the profiler's sync-wait class).
func (u *uop) syncCond() bool { return u.meta&metaSyncCond != 0 }

// trap reports an unoccupied slot; executing it is a simulation error.
func (u *uop) trap() bool { return u.meta&metaTrap != 0 }

// data reassembles the parcel's data operation as a DecodedOp (the
// superop fuser's form).
func (u *uop) data() DecodedOp {
	return DecodedOp{Flags: u.Flags, Op: u.Op, AReg: u.AReg, BReg: u.BReg,
		Dest: u.Dest, AImm: u.AImm, BImm: u.BImm}
}

// decodeProgram builds the flat micro-op table for a validated program.
func decodeProgram(p *isa.Program) []uop {
	n := p.NumFU
	code := make([]uop, p.Len()*n)
	for addr := 0; addr < p.Len(); addr++ {
		for fu := 0; fu < n; fu++ {
			parcel := p.Instrs[addr][fu]
			u := &code[addr*n+fu]
			if parcel.Trap {
				u.meta = metaTrap
				continue
			}
			d := DecodeDataOp(parcel.Data)
			u.Flags, u.Op = d.Flags, d.Op
			u.AReg, u.BReg, u.Dest = d.AReg, d.BReg, d.Dest
			u.AImm, u.BImm = d.AImm, d.BImm
			u.meta = uint8(parcel.Ctrl.Kind) & metaKindMask
			u.t1, u.t2 = parcel.Ctrl.T1, parcel.Ctrl.T2
			if parcel.Ctrl.Kind == isa.CtrlCond {
				u.ctrl = CompileCond(parcel.Ctrl, n)
				if parcel.Ctrl.Cond.ReadsSS() {
					u.meta |= metaSyncCond
				}
			}
			u.tag = ctrlTag(parcel.Ctrl)
			if parcel.Sync == isa.Done {
				u.meta |= metaSyncDone
			}
		}
	}
	return code
}
