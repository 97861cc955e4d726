package core

import (
	"fmt"
	"strings"

	"ximd/internal/isa"
)

// Stats accumulates execution statistics across a run. The stream-count
// histogram records how many cycles the machine spent executing each
// number of concurrent instruction streams — the paper's defining
// observable ("The number of streams can vary from cycle to cycle").
type Stats struct {
	// Cycles is the number of executed cycles.
	Cycles uint64
	// DataOps[fu] counts non-nop data operations executed by FU fu.
	DataOps []uint64
	// Nops[fu] counts explicit nops executed by FU fu.
	Nops []uint64
	// HaltedCycles[fu] counts cycles FU fu spent halted.
	HaltedCycles []uint64
	// CondBranches counts conditional control operations evaluated;
	// TakenBranches counts those that selected T1.
	CondBranches  uint64
	TakenBranches uint64
	// Loads and Stores count memory operations.
	Loads  uint64
	Stores uint64
	// RegConflicts and MemConflicts count tolerated same-cycle write
	// conflicts (only populated with Config.TolerateConflicts).
	RegConflicts uint64
	MemConflicts uint64
	// SyncWaitCycles[fu] counts the subset of Nops[fu] spent spinning on
	// the synchronization-signal network: the parcel's data operation is
	// a nop and its branch condition reads SS. This is the profiler's
	// sync-wait stall class; Nops[fu]-SyncWaitCycles[fu] is idle padding.
	// Always zero on the VLIW baseline, which has no SS network.
	SyncWaitCycles []uint64
	// PortConflicts[fu] counts tolerated same-cycle register write
	// conflicts attributed to the FU whose write lost (the per-FU view of
	// RegConflicts). These are events, not cycles: the FU still executed
	// its data operation that cycle.
	PortConflicts []uint64
	// StallCycles[fu] counts cycles FU fu spent stalled on an in-flight
	// load under injected memory latency; FailedCycles[fu] counts cycles
	// it spent hard-failed. Both stay zero with injection disabled.
	StallCycles  []uint64
	FailedCycles []uint64
	// BitFlips counts loads whose value arrived with an injected bit
	// inverted.
	BitFlips uint64
	// StreamHistogram[k] is the number of cycles executed with exactly k
	// concurrent instruction streams (SSETs), k in 1..NumFU.
	StreamHistogram []uint64
	// StreamClamped counts cycles whose observed SSET count fell outside
	// the histogram's 1..NumFU range and was clamped to the nearest bound.
	// A non-zero value indicates a partition-tracker bug; the cycles are
	// still counted so that MeanStreams never silently undercounts.
	StreamClamped uint64
}

// NewStats returns a zeroed Stats sized for a numFU-wide machine.
func NewStats(numFU int) Stats {
	return Stats{
		DataOps:         make([]uint64, numFU),
		Nops:            make([]uint64, numFU),
		HaltedCycles:    make([]uint64, numFU),
		StallCycles:     make([]uint64, numFU),
		FailedCycles:    make([]uint64, numFU),
		SyncWaitCycles:  make([]uint64, numFU),
		PortConflicts:   make([]uint64, numFU),
		StreamHistogram: make([]uint64, numFU+1),
	}
}

// Clone returns a deep copy: the slice fields of the copy share no
// backing arrays with s, so a clone taken mid-run is immutable under
// further machine steps and safe to hand to another goroutine.
func (s Stats) Clone() Stats {
	c := s
	c.DataOps = append([]uint64(nil), s.DataOps...)
	c.Nops = append([]uint64(nil), s.Nops...)
	c.HaltedCycles = append([]uint64(nil), s.HaltedCycles...)
	c.StallCycles = append([]uint64(nil), s.StallCycles...)
	c.FailedCycles = append([]uint64(nil), s.FailedCycles...)
	c.SyncWaitCycles = append([]uint64(nil), s.SyncWaitCycles...)
	c.PortConflicts = append([]uint64(nil), s.PortConflicts...)
	c.StreamHistogram = append([]uint64(nil), s.StreamHistogram...)
	return c
}

// observeStreams counts one executed cycle into the stream histogram.
// Every executed cycle must land in the histogram: an out-of-range SSET
// count is clamped to the nearest bound and flagged, so the invariant
// Cycles == sum(StreamHistogram) holds and MeanStreams cannot silently
// undercount.
func (s *Stats) observeStreams(numSSETs int) {
	s.Cycles++
	k := numSSETs
	if k < 1 {
		k = 1
		s.StreamClamped++
	} else if k >= len(s.StreamHistogram) {
		k = len(s.StreamHistogram) - 1
		s.StreamClamped++
	}
	s.StreamHistogram[k]++
}

func (s *Stats) observeCycle(numSSETs int, parcels []isa.Parcel, halted []bool) {
	s.observeStreams(numSSETs)
	for fu := range parcels {
		if halted[fu] {
			s.HaltedCycles[fu]++
			continue
		}
		if parcels[fu].Data.Op == isa.OpNop {
			s.Nops[fu]++
			if syncWaitParcel(parcels[fu]) {
				s.SyncWaitCycles[fu]++
			}
		} else {
			s.DataOps[fu]++
		}
	}
}

// syncWaitParcel reports whether executing p is a synchronization spin:
// no data-path work, branch condition watching the SS network.
func syncWaitParcel(p isa.Parcel) bool {
	return p.Ctrl.Kind == isa.CtrlCond && p.Ctrl.Cond.ReadsSS()
}

// AttributedFUCycles returns the number of FU-cycles the profiler has
// attributed to a class: busy (DataOps), nop (Nops, of which
// SyncWaitCycles are sync spins), halted, memory-stalled, or failed.
// Every executed cycle lands each FU in exactly one class, so
// AttributedFUCycles == Cycles × NumFU for every run — the attribution
// invariant the profiler tests enforce.
func (s Stats) AttributedFUCycles() uint64 {
	var total uint64
	for fu := range s.DataOps {
		total += s.DataOps[fu] + s.Nops[fu] + s.HaltedCycles[fu] + s.StallCycles[fu] + s.FailedCycles[fu]
	}
	return total
}

// TotalDataOps returns the total non-nop data operations across all FUs.
func (s Stats) TotalDataOps() uint64 {
	var total uint64
	for _, v := range s.DataOps {
		total += v
	}
	return total
}

// Utilization returns the fraction of FU-cycles that performed useful
// (non-nop, non-halted) data work, in [0, 1].
func (s Stats) Utilization() float64 {
	if s.Cycles == 0 || len(s.DataOps) == 0 {
		return 0
	}
	return float64(s.TotalDataOps()) / float64(s.Cycles*uint64(len(s.DataOps)))
}

// OpsPerCycle returns the average useful data operations per cycle.
func (s Stats) OpsPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.TotalDataOps()) / float64(s.Cycles)
}

// MeanStreams returns the cycle-weighted average number of concurrent
// instruction streams.
func (s Stats) MeanStreams() float64 {
	if s.Cycles == 0 {
		return 0
	}
	var sum uint64
	for k, cycles := range s.StreamHistogram {
		sum += uint64(k) * cycles
	}
	return float64(sum) / float64(s.Cycles)
}

// String renders a short human-readable summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d ops=%d ops/cycle=%.2f util=%.1f%% streams(mean)=%.2f",
		s.Cycles, s.TotalDataOps(), s.OpsPerCycle(), 100*s.Utilization(), s.MeanStreams())
	fmt.Fprintf(&b, " branches=%d/%d loads=%d stores=%d",
		s.TakenBranches, s.CondBranches, s.Loads, s.Stores)
	return b.String()
}
