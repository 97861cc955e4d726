package core

import (
	"fmt"

	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
	"ximd/internal/wire"
)

// Binary serialization of machine snapshots for the durable checkpoint
// format (internal/ckpt). Only in-flight snapshots serialize: a
// snapshot of a finished or faulted machine carries a latched error
// value that cannot round-trip through bytes, and a terminal run has a
// result document instead of a checkpoint — the service archives it
// and deletes the checkpoint. Encode therefore refuses done/failed
// snapshots, and everything that does encode restores byte-identically.

// EncodeStats appends a statistics snapshot to w.
func EncodeStats(w *wire.Writer, s *Stats) {
	w.U64(s.Cycles)
	w.U64s(s.DataOps)
	w.U64s(s.Nops)
	w.U64s(s.HaltedCycles)
	w.U64(s.CondBranches)
	w.U64(s.TakenBranches)
	w.U64(s.Loads)
	w.U64(s.Stores)
	w.U64(s.RegConflicts)
	w.U64(s.MemConflicts)
	w.U64s(s.SyncWaitCycles)
	w.U64s(s.PortConflicts)
	w.U64s(s.StallCycles)
	w.U64s(s.FailedCycles)
	w.U64(s.BitFlips)
	w.U64s(s.StreamHistogram)
	w.U64(s.StreamClamped)
}

// DecodeStats reads a statistics snapshot written by EncodeStats.
func DecodeStats(r *wire.Reader) Stats {
	var s Stats
	s.Cycles = r.U64()
	s.DataOps = r.U64s()
	s.Nops = r.U64s()
	s.HaltedCycles = r.U64s()
	s.CondBranches = r.U64()
	s.TakenBranches = r.U64()
	s.Loads = r.U64()
	s.Stores = r.U64()
	s.RegConflicts = r.U64()
	s.MemConflicts = r.U64()
	s.SyncWaitCycles = r.U64s()
	s.PortConflicts = r.U64s()
	s.StallCycles = r.U64s()
	s.FailedCycles = r.U64s()
	s.BitFlips = r.U64()
	s.StreamHistogram = r.U64s()
	s.StreamClamped = r.U64()
	return s
}

func encodeBools(w *wire.Writer, vs []bool) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.Bool(v)
	}
}

func decodeBools(r *wire.Reader) []bool {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

func encodeAddrs(w *wire.Writer, vs []isa.Addr) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U16(uint16(v))
	}
}

func decodeAddrs(r *wire.Reader) []isa.Addr {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	out := make([]isa.Addr, n)
	for i := range out {
		out[i] = isa.Addr(r.U16())
	}
	return out
}

// Encode appends the snapshot to w. Snapshots of finished or faulted
// machines do not encode: the latched error value cannot round-trip,
// and a terminal run is archived as a result document, never resumed.
func (s *Snapshot) Encode(w *wire.Writer) error {
	if s.lockstep {
		return fmt.Errorf("core: a lockstep snapshot encodes in the VLIW layout (vliw.EncodeSnapshot)")
	}
	if s.done || s.failure != nil {
		return fmt.Errorf("core: cannot encode a terminal snapshot (done=%v, failure=%v)", s.done, s.failure)
	}
	w.U64(s.cycle)
	encodeAddrs(w, s.pc)
	encodeBools(w, s.cc)
	encodeBools(w, s.ccValid)
	encodeBools(w, s.halted)
	w.U32(uint32(len(s.prevSS)))
	for _, v := range s.prevSS {
		w.U8(uint8(v))
	}
	w.Bool(s.prevState.valid)
	w.Bool(s.prevState.wrote)
	for _, pc := range s.prevState.pc {
		w.U16(uint16(pc))
	}
	w.U8(s.prevState.cc)
	w.U8(s.prevState.ss)
	w.U8(s.prevState.halted)
	w.U32(uint32(len(s.sset)))
	for _, v := range s.sset {
		w.U8(uint8(v))
	}
	EncodeStats(w, &s.stats)
	s.regs.Encode(w)
	if err := mem.EncodeState(w, s.memory); err != nil {
		return err
	}
	w.Bool(s.stall != nil)
	if s.stall != nil {
		w.U32(uint32(len(s.stall)))
		for _, v := range s.stall {
			w.U32(v)
		}
		encodeBools(w, s.failed)
	}
	w.I64(int64(s.nFailed))
	return nil
}

// DecodeSnapshot reads a snapshot written by Encode. The decoded
// snapshot restores through Machine.Restore exactly like one taken in
// this process; structural corruption (bad lengths, out-of-range SSET
// ids) fails the decode rather than producing a restorable-but-wrong
// state.
func DecodeSnapshot(r *wire.Reader) (*Snapshot, error) {
	s := &Snapshot{}
	s.cycle = r.U64()
	s.pc = decodeAddrs(r)
	s.cc = decodeBools(r)
	s.ccValid = decodeBools(r)
	s.halted = decodeBools(r)
	nSS := r.Count(1)
	s.prevSS = make([]isa.Sync, nSS)
	for i := range s.prevSS {
		v := r.U8()
		if v > uint8(isa.Done) {
			return nil, fmt.Errorf("core: decode snapshot: invalid sync value %d", v)
		}
		s.prevSS[i] = isa.Sync(v)
	}
	s.prevState.valid = r.Bool()
	s.prevState.wrote = r.Bool()
	for i := range s.prevState.pc {
		s.prevState.pc[i] = isa.Addr(r.U16())
	}
	s.prevState.cc = r.U8()
	s.prevState.ss = r.U8()
	s.prevState.halted = r.U8()
	nSSET := r.Count(1)
	s.sset = make([]int, nSSET)
	for i := range s.sset {
		// Valid ids span [0, 2*numFU): running groups use first-member FU
		// indices, halted FUs are frozen singletons offset by numFU.
		v := r.U8()
		if int(v) >= 2*isa.NumFU {
			return nil, fmt.Errorf("core: decode snapshot: SSET id %d out of range", v)
		}
		s.sset[i] = int(v)
	}
	s.stats = DecodeStats(r)
	regs, err := regfile.DecodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	s.regs = regs
	memState, err := mem.DecodeState(r)
	if err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	s.memory = memState
	if r.Bool() {
		nStall := r.Count(4)
		s.stall = make([]uint32, nStall)
		for i := range s.stall {
			s.stall[i] = r.U32()
		}
		s.failed = decodeBools(r)
	}
	s.nFailed = int(r.I64())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	n := len(s.pc)
	if n < 1 || n > isa.NumFU {
		return nil, fmt.Errorf("core: decode snapshot: %d FUs out of range", n)
	}
	if len(s.cc) != n || len(s.ccValid) != n || len(s.halted) != n || len(s.prevSS) != n || len(s.sset) != n {
		return nil, fmt.Errorf("core: decode snapshot: inconsistent per-FU vector lengths")
	}
	for _, id := range s.sset {
		if id >= 2*n {
			return nil, fmt.Errorf("core: decode snapshot: SSET id %d out of range for %d FUs", id, n)
		}
	}
	if s.stall != nil && (len(s.stall) != n || len(s.failed) != n) {
		return nil, fmt.Errorf("core: decode snapshot: inconsistent injection vector lengths")
	}
	if s.nFailed < 0 || s.nFailed > n {
		return nil, fmt.Errorf("core: decode snapshot: failed-FU count %d out of range", s.nFailed)
	}
	return s, nil
}
