package core

import (
	"fmt"

	"ximd/internal/isa"
)

// This file exposes the fast engine's pre-decode step as a first-class,
// shareable artifact. Decoding a program — validating it, resolving
// operand kinds, baking class flags, and compiling branch conditions to
// bitmask compares — is pure: the resulting micro-op table is never
// written during execution, so one table can back any number of
// machines, including machines running concurrently. A service that
// executes the same program many times (the ximdd decoded-program
// cache) pays the validate+decode cost once and constructs every
// subsequent machine from the shared table.

// Decoded is a validated program together with its fast-engine micro-op
// table and superop fusion table. It is immutable after Predecode and
// safe for concurrent use by any number of machines.
type Decoded struct {
	prog *isa.Program
	code []uop
	fuse *fuseInfo
	// lockstep marks a table built by PredecodeLockstep: machines built
	// from it run in lockstep (VLIW) mode.
	lockstep bool
}

// Predecode validates prog and builds its fast-engine micro-op table
// and superop fusion table once. Machines constructed with
// Config.Decoded skip all three steps — so a decoded-program cache hit
// gets fusion for free, with no change to the cache key.
func Predecode(prog *isa.Program) (*Decoded, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid program: %w", err)
	}
	code := decodeProgram(prog)
	return &Decoded{prog: prog, code: code, fuse: fuseProgram(prog, code)}, nil
}

// PredecodeLockstep is Predecode for the VLIW baseline: machines built
// from the table run in lockstep mode, one sequencer driving every FU
// (Section 3.1: a VLIW program is an XIMD program with its single
// control operation copied into every parcel, which is exactly what the
// program must be). Lockstep differs from XIMD execution where the
// architectures differ: each word evaluates its control operation once,
// every cycle is one instruction stream, an injected load latency
// stalls the whole word, and a hard FU failure is terminal the moment
// it lands. Errors read "vliw: cycle N, FUk: ...".
func PredecodeLockstep(prog *isa.Program) (*Decoded, error) {
	d, err := Predecode(prog)
	if err != nil {
		return nil, err
	}
	for addr, instr := range prog.Instrs {
		ctrl := instr[0].Ctrl
		for fu := 0; fu < prog.NumFU; fu++ {
			if instr[fu].Trap || !instr[fu].Ctrl.Equal(ctrl) {
				return nil, fmt.Errorf("core: lockstep: address %d does not carry one control operation in every parcel", addr)
			}
		}
		if ctrl.Kind == isa.CtrlCond && ctrl.Cond.ReadsSS() {
			return nil, fmt.Errorf("core: lockstep: address %d: %s reads synchronization signals", addr, ctrl)
		}
	}
	d.lockstep = true
	return d, nil
}

// Lockstep reports whether machines built from the table run in
// lockstep (VLIW) mode.
func (d *Decoded) Lockstep() bool { return d.lockstep }

// Program returns the validated program the table was decoded from. The
// caller must not mutate it: the decoded table mirrors its contents.
func (d *Decoded) Program() *isa.Program { return d.prog }

// FusibleWords reports how many instruction words begin (or continue) a
// fused superop run — words the fast engine can execute without
// per-cycle dispatch. It is introspection for caches and tools; zero
// means the program has no straight-line fusible stretches.
func (d *Decoded) FusibleWords() int {
	if d.fuse == nil {
		return 0
	}
	n := 0
	for _, r := range d.fuse.runLen {
		if r > 0 {
			n++
		}
	}
	return n
}
