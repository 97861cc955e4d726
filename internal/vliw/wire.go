package vliw

import (
	"fmt"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
	"ximd/internal/wire"
)

// The VLIW checkpoint wire layout (internal/ckpt's arch tag 2): a
// lockstep snapshot's single PC, condition codes, statistics,
// registers, memory, and whole-word stall. Only in-flight snapshots
// encode (a terminal run is archived, never resumed), and everything
// that encodes restores byte-identically.

// EncodeSnapshot appends a lockstep machine's snapshot to w.
func EncodeSnapshot(w *wire.Writer, s *core.Snapshot) error {
	st, err := s.LockstepState()
	if err != nil {
		return fmt.Errorf("vliw: %w", err)
	}
	w.U64(st.Cycle)
	w.U16(uint16(st.PC))
	w.U32(uint32(len(st.CC)))
	for _, v := range st.CC {
		w.Bool(v)
	}
	core.EncodeStats(w, &st.Stats)
	st.Regs.Encode(w)
	if err := mem.EncodeState(w, st.Memory); err != nil {
		return err
	}
	w.U32(st.Stall)
	return nil
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot.
func DecodeSnapshot(r *wire.Reader) (*core.Snapshot, error) {
	var st core.LockstepState
	st.Cycle = r.U64()
	st.PC = isa.Addr(r.U16())
	n := r.Count(1)
	st.CC = make([]bool, n)
	for i := range st.CC {
		st.CC[i] = r.Bool()
	}
	st.Stats = core.DecodeStats(r)
	regs, err := regfile.DecodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("vliw: decode snapshot: %w", err)
	}
	st.Regs = regs
	memState, err := mem.DecodeState(r)
	if err != nil {
		return nil, fmt.Errorf("vliw: decode snapshot: %w", err)
	}
	st.Memory = memState
	st.Stall = r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vliw: decode snapshot: %w", err)
	}
	if n < 1 || n > isa.NumFU {
		return nil, fmt.Errorf("vliw: decode snapshot: %d FUs out of range", n)
	}
	return core.NewLockstepSnapshot(st), nil
}
