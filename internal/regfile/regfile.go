// Package regfile models the XIMD-1 global register file and the custom
// multi-port register file chip of Section 4.4.
//
// The research model's register file "simultaneously supports two reads
// and one write per functional unit for a total of 16 reads and 8 writes
// per cycle" (Section 2.2) across 256 registers (Section 4.3). This
// package provides the architectural register state, per-cycle port
// accounting, and write-conflict detection: the effect of two functional
// units writing the same register in one cycle is undefined on the real
// machine, so the simulator reports it as an error by default.
package regfile

import (
	"fmt"

	"ximd/internal/isa"
)

// PortsPerFU is the number of read and write ports each functional unit
// owns: 2 reads and 1 write per cycle.
const (
	ReadPortsPerFU  = 2
	WritePortsPerFU = 1
)

// WriteConflictError reports two functional units writing the same
// register in the same cycle — undefined behaviour on XIMD-1.
type WriteConflictError struct {
	Reg      uint8
	FirstFU  int
	SecondFU int
}

func (e *WriteConflictError) Error() string {
	return fmt.Sprintf("register write conflict: FU%d and FU%d both write r%d in one cycle",
		e.FirstFU, e.SecondFU, e.Reg)
}

// PortOverflowError reports a functional unit exceeding its per-cycle port
// allocation. The simulators issue at most one 3-address operation per FU
// per cycle, so this indicates an internal bug or a hand-built torture
// test.
type PortOverflowError struct {
	FU     int
	Kind   string // "read" or "write"
	Limit  int
	Wanted int
}

func (e *PortOverflowError) Error() string {
	return fmt.Sprintf("FU%d exceeds %s port allocation: wanted %d, limit %d",
		e.FU, e.Kind, e.Wanted, e.Limit)
}

// File is the global register file. It stages writes within a cycle and
// commits them at cycle end, matching the synchronous datapath: all
// operand reads in a cycle observe the register state at the start of the
// cycle.
type File struct {
	regs [isa.NumRegs]isa.Word

	// Per-cycle staging and accounting, reset by BeginCycle. dirty is a
	// 256-bit bitmap of registers with a staged write this cycle, so
	// conflict detection is one mask test instead of a scan of the
	// staged-write list.
	pendingWrites []pendingWrite
	dirty         [isa.NumRegs / 64]uint64
	readsByFU     [isa.NumFU]int
	writesByFU    [isa.NumFU]int

	// Cumulative statistics.
	totalReads    uint64
	totalWrites   uint64
	totalCycles   uint64
	peakReads     int
	peakWrites    int
	cycleReads    int
	cycleWrites   int
	conflictCount uint64
}

type pendingWrite struct {
	reg uint8
	val isa.Word
	fu  int
}

// New returns a register file with all registers zero.
func New() *File { return &File{} }

// Read returns the value of register reg as of the start of the current
// cycle, charging one read port to fu. A read past the port allocation
// fails and is not counted in the port statistics (only successful
// accesses appear in the Section 4.4 numbers).
func (f *File) Read(fu int, reg uint8) (isa.Word, error) {
	n := f.readsByFU[fu] + 1
	f.readsByFU[fu] = n
	if n > ReadPortsPerFU {
		return 0, f.readOverflow(fu, n)
	}
	f.cycleReads++
	f.totalReads++
	return f.regs[reg], nil
}

func (f *File) readOverflow(fu, wanted int) error {
	return &PortOverflowError{FU: fu, Kind: "read", Limit: ReadPortsPerFU, Wanted: wanted}
}

// Peek returns the current value of a register without charging a port;
// for use by traces, tests, and host access.
func (f *File) Peek(reg uint8) isa.Word { return f.regs[reg] }

// Poke sets a register directly, outside cycle accounting; for host
// initialization of machine state.
func (f *File) Poke(reg uint8, v isa.Word) { f.regs[reg] = v }

// Write stages a write of v to register reg by fu; the value becomes
// visible after Commit. A same-cycle conflict with a previous staged write
// to the same register is returned as a WriteConflictError (and also
// counted, so a simulator configured to tolerate conflicts can proceed —
// last staged write wins, deterministically by FU order of staging).
func (f *File) Write(fu int, reg uint8, v isa.Word) error {
	n := f.writesByFU[fu] + 1
	f.writesByFU[fu] = n
	if n > WritePortsPerFU {
		return f.writeOverflow(fu, n)
	}
	f.cycleWrites++
	f.totalWrites++
	word, bit := reg>>6, uint64(1)<<(reg&63)
	if f.dirty[word]&bit != 0 {
		return f.writeConflict(fu, reg, v)
	}
	f.dirty[word] |= bit
	f.pendingWrites = append(f.pendingWrites, pendingWrite{reg: reg, val: v, fu: fu})
	return nil
}

// writeOverflow builds the port-overflow error off the hot path. An
// overflowed write is rejected outright: nothing is staged or counted.
func (f *File) writeOverflow(fu, wanted int) error {
	return &PortOverflowError{FU: fu, Kind: "write", Limit: WritePortsPerFU, Wanted: wanted}
}

// writeConflict handles the rare dirty-bit hit: the conflicting write is
// still staged (last staged wins in tolerant mode) and the first staging
// FU is recovered from the pending list for the error report.
func (f *File) writeConflict(fu int, reg uint8, v isa.Word) error {
	f.conflictCount++
	first := fu
	for _, w := range f.pendingWrites {
		if w.reg == reg {
			first = w.fu
			break
		}
	}
	f.pendingWrites = append(f.pendingWrites, pendingWrite{reg: reg, val: v, fu: fu})
	return &WriteConflictError{Reg: reg, FirstFU: first, SecondFU: fu}
}

// BeginCycle resets per-cycle port accounting and the dirty bitmap.
func (f *File) BeginCycle() {
	f.pendingWrites = f.pendingWrites[:0]
	f.dirty = [isa.NumRegs / 64]uint64{}
	for i := range f.readsByFU {
		f.readsByFU[i] = 0
		f.writesByFU[i] = 0
	}
	f.cycleReads = 0
	f.cycleWrites = 0
}

// Commit applies all staged writes in staging order, making them visible
// to the next cycle, and folds this cycle into the cumulative port
// statistics. The simulators stage writes in ascending FU order, so a
// tolerated conflict deterministically resolves to the highest-numbered
// staging FU ("last writer wins").
func (f *File) Commit() {
	for _, w := range f.pendingWrites {
		f.regs[w.reg] = w.val
	}
	f.totalCycles++
	if f.cycleReads > f.peakReads {
		f.peakReads = f.cycleReads
	}
	if f.cycleWrites > f.peakWrites {
		f.peakWrites = f.cycleWrites
	}
}

// Stats summarizes cumulative port activity, used by the Section 4.4
// register-file experiment.
type Stats struct {
	Cycles        uint64
	TotalReads    uint64
	TotalWrites   uint64
	PeakReads     int // maximum reads observed in one cycle
	PeakWrites    int // maximum writes observed in one cycle
	WriteConflict uint64
}

// Stats returns the cumulative port statistics.
func (f *File) Stats() Stats {
	return Stats{
		Cycles:        f.totalCycles,
		TotalReads:    f.totalReads,
		TotalWrites:   f.totalWrites,
		PeakReads:     f.peakReads,
		PeakWrites:    f.peakWrites,
		WriteConflict: f.conflictCount,
	}
}

// AddBulk folds externally-accounted cycles into the cumulative port
// statistics: cycles committed cycles, each charging the given total
// reads/writes, with peakReads/peakWrites the largest single-cycle read
// and write counts among them. The fused execution engines account
// whole straight-line runs this way — they read and write the register
// array directly (the runs are statically conflict- and overflow-free)
// and report the port traffic here at run exit, so Stats() observes
// exactly what per-cycle Read/Write/Commit accounting would have.
func (f *File) AddBulk(cycles, reads, writes uint64, peakReads, peakWrites int) {
	f.totalCycles += cycles
	f.totalReads += reads
	f.totalWrites += writes
	if peakReads > f.peakReads {
		f.peakReads = peakReads
	}
	if peakWrites > f.peakWrites {
		f.peakWrites = peakWrites
	}
}

// Raw exposes the register array directly, bypassing staging, port
// accounting, and conflict detection, for the fused execution engines
// (see AddBulk). Any other caller should use Read/Write or Peek/Poke.
func (f *File) Raw() *[isa.NumRegs]isa.Word { return &f.regs }
