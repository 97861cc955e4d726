// Package vliw is the paper's VLIW baseline — the companion simulator
// the authors call vsim (Section 4.1): "a VLIW processor with similar
// characteristics" to XIMD-1. The datapath is identical (the same
// functional units, global register file, condition codes, and idealized
// memory); the control path is the single global sequencer of Figure 4.
// Each instruction carries one data operation per functional unit and
// exactly one control operation, so only one branch can execute per cycle
// — the limitation Section 1.3 identifies and XIMD removes.
//
// The machine itself is core.Machine in lockstep mode: Section 3.1's
// recipe (ToXIMD copies the control operation into every parcel) turns
// a VLIW program into an XIMD one, and PredecodeLockstep marks its
// decoded table so the machine runs it under one sequencer. This
// package holds the VLIW program form, its validation and conversions,
// the constructors, and the VLIW checkpoint wire layout.
package vliw

import (
	"errors"
	"fmt"

	"ximd/internal/core"
	"ximd/internal/isa"
)

// Instruction is one very long instruction word of the VLIW baseline: one
// data operation per functional unit plus a single sequencer operation.
// The sequencer condition may reference any functional unit's condition
// code; synchronization-signal conditions do not exist on a VLIW.
type Instruction struct {
	Ops  [isa.NumFU]isa.DataOp
	Ctrl isa.CtrlOp
}

// Program is an assembled VLIW program.
type Program struct {
	Instrs []Instruction
	NumFU  int
	Entry  isa.Addr
	Labels map[string]isa.Addr
}

// Validate checks the program's structural validity.
func (p *Program) Validate() error {
	if p.NumFU < 1 || p.NumFU > isa.NumFU {
		return fmt.Errorf("vliw: NumFU = %d, want 1..%d", p.NumFU, isa.NumFU)
	}
	if len(p.Instrs) == 0 {
		return fmt.Errorf("vliw: empty program")
	}
	if int(p.Entry) >= len(p.Instrs) {
		return fmt.Errorf("vliw: entry %d outside program", p.Entry)
	}
	for addr, in := range p.Instrs {
		for fu := 0; fu < p.NumFU; fu++ {
			if err := in.Ops[fu].Validate(); err != nil {
				return fmt.Errorf("vliw: addr %d fu %d: %w", addr, fu, err)
			}
		}
		if err := in.Ctrl.Validate(p.NumFU); err != nil {
			return fmt.Errorf("vliw: addr %d: %w", addr, err)
		}
		if in.Ctrl.Kind == isa.CtrlCond {
			switch in.Ctrl.Cond {
			case isa.CondCC, isa.CondNotCC:
			default:
				return fmt.Errorf("vliw: addr %d: condition %s requires synchronization signals, which a VLIW has none of", addr, in.Ctrl)
			}
		}
		for _, t := range in.Ctrl.Targets() {
			if int(t) >= len(p.Instrs) {
				return fmt.Errorf("vliw: addr %d: branch target %d outside program", addr, t)
			}
		}
	}
	return nil
}

// FromXIMD converts a VLIW-style XIMD program (identical control in every
// parcel, per Section 3.1) into a native VLIW program. Holes (trap
// parcels) become nops carrying the common control.
func FromXIMD(p *isa.Program) (*Program, error) {
	out := &Program{
		Instrs: make([]Instruction, len(p.Instrs)),
		NumFU:  p.NumFU,
		Entry:  p.Entry,
		Labels: p.Labels,
	}
	for addr, instr := range p.Instrs {
		lead := -1
		for fu := 0; fu < p.NumFU; fu++ {
			if !instr[fu].Trap {
				lead = fu
				break
			}
		}
		if lead < 0 {
			return nil, fmt.Errorf("vliw: address %d has no parcels", addr)
		}
		out.Instrs[addr].Ctrl = instr[lead].Ctrl
		for fu := 0; fu < p.NumFU; fu++ {
			parcel := instr[fu]
			if parcel.Trap {
				out.Instrs[addr].Ops[fu] = isa.Nop
				continue
			}
			if !parcel.Ctrl.Equal(instr[lead].Ctrl) {
				return nil, fmt.Errorf("vliw: address %d: parcels carry different control operations (%s vs %s); program is not VLIW-style",
					addr, parcel.Ctrl, instr[lead].Ctrl)
			}
			out.Instrs[addr].Ops[fu] = parcel.Data
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ToXIMD converts a VLIW program to an XIMD program by duplicating the
// control operation into every parcel — the Section 3.1 recipe for
// executing VLIW code on an XIMD.
func (p *Program) ToXIMD() *isa.Program {
	out := &isa.Program{
		Instrs: make([]isa.Instruction, len(p.Instrs)),
		NumFU:  p.NumFU,
		Entry:  p.Entry,
		Labels: p.Labels,
	}
	for addr, in := range p.Instrs {
		for fu := 0; fu < isa.NumFU; fu++ {
			if fu >= p.NumFU {
				out.Instrs[addr][fu] = isa.TrapParcel
				continue
			}
			out.Instrs[addr][fu] = isa.Normalize(isa.Parcel{Data: in.Ops[fu], Ctrl: in.Ctrl})
		}
	}
	return out
}

// Config parameterizes a VLIW machine: the core machine's settings.
// Config.Decoded, if set, must come from Predecode.
type Config = core.Config

// Machine is a VLIW processor instance: a core.Machine in lockstep mode.
// Its PC(fu) is the one sequencer's for every fu.
type Machine = core.Machine

// Predecode validates prog and builds its lockstep decoded table (the
// core micro-op and superop fusion tables of prog.ToXIMD()). Machines
// built with Config.Decoded skip both steps — the ximdd
// decoded-program cache's hit path.
func Predecode(prog *Program) (*core.Decoded, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return core.PredecodeLockstep(prog.ToXIMD())
}

// New creates a VLIW machine loaded with prog. With Config.Decoded set,
// prog may be nil; a prog passed as well must be the one the table was
// built from (New checks only its shape).
func New(prog *Program, cfg Config) (*Machine, error) {
	d := cfg.Decoded
	switch {
	case d == nil:
		var err error
		if cfg.Decoded, err = Predecode(prog); err != nil {
			return nil, err
		}
	case !d.Lockstep():
		return nil, errors.New("vliw: Config.Decoded was not built by vliw.Predecode")
	case prog != nil && (prog.NumFU != d.Program().NumFU || len(prog.Instrs) != d.Program().Len()):
		return nil, errors.New("vliw: Config.Decoded was built from a different program")
	}
	return core.New(nil, cfg)
}
