package core

import (
	"fmt"

	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
)

// Snapshot is a between-cycles checkpoint of a Machine: the complete
// architectural state (PCs, CCs, halt state, registers, memory, the SSET
// partition, statistics, and any injection state), sufficient to rewind
// the machine and replay deterministically. Snapshots are taken between
// Step calls; the sweep retry policy uses them to recover a
// transiently-faulted run without restarting from cycle 0.
//
// A snapshot is engine-portable — the packed fast-engine state is
// canonicalized to slice form — but program-bound: restoring it onto a
// machine running a different program silently resumes that program from
// the snapshotted control state. It is mode-bound too: a lockstep
// machine's snapshot holds only the VLIW state (one PC, the condition
// codes, the whole-word stall) and restores only onto a lockstep
// machine.
type Snapshot struct {
	lockstep  bool
	cycle     uint64
	done      bool
	failure   error
	pc        []isa.Addr
	cc        []bool
	ccValid   []bool
	halted    []bool
	prevSS    []isa.Sync
	prevState fingerprint
	sset      []int
	stats     Stats
	regs      *regfile.Snapshot
	memory    mem.State
	stall     []uint32 // per FU (nil without injection); lockstep: the whole-word stall
	failed    []bool
	nFailed   int
}

// Cycle returns the cycle number at which the snapshot was taken.
func (s *Snapshot) Cycle() uint64 { return s.cycle }

// LockstepState is the content of a lockstep machine's snapshot: what
// the VLIW checkpoint wire layout (internal/vliw) carries.
type LockstepState struct {
	Cycle  uint64
	PC     isa.Addr
	CC     []bool
	Stats  Stats
	Regs   *regfile.Snapshot
	Memory mem.State
	Stall  uint32 // remaining whole-word stall cycles
}

// LockstepState returns the content of an in-flight lockstep snapshot.
// XIMD snapshots and terminal ones (done or failed: the latched error
// cannot round-trip) have none to give.
func (s *Snapshot) LockstepState() (LockstepState, error) {
	if !s.lockstep {
		return LockstepState{}, fmt.Errorf("not a lockstep snapshot")
	}
	if s.done || s.failure != nil {
		return LockstepState{}, fmt.Errorf("cannot encode a terminal snapshot (done=%v, failure=%v)", s.done, s.failure)
	}
	return LockstepState{Cycle: s.cycle, PC: s.pc[0], CC: s.cc, Stats: s.stats,
		Regs: s.regs, Memory: s.memory, Stall: s.stall[0]}, nil
}

// NewLockstepSnapshot rebuilds a lockstep snapshot from its content,
// for restoring onto a lockstep machine.
func NewLockstepSnapshot(st LockstepState) *Snapshot {
	return &Snapshot{lockstep: true, cycle: st.Cycle, pc: []isa.Addr{st.PC}, cc: st.CC,
		stats: st.Stats, regs: st.Regs, memory: st.Memory, stall: []uint32{st.Stall}}
}

// Snapshot captures the machine's state between cycles. It fails when
// the memory model cannot be checkpointed (e.g. devices are mapped).
func (m *Machine) Snapshot() (*Snapshot, error) {
	ckpt, ok := m.memory.(mem.Checkpointable)
	if !ok {
		return nil, m.errorf("memory model %T does not support checkpointing", m.memory)
	}
	memState, err := ckpt.SnapshotState()
	if err != nil {
		return nil, m.errorf("snapshot: %w", err)
	}
	n := m.numFU
	s := &Snapshot{
		lockstep: m.lockstep,
		cycle:    m.cycle,
		done:     m.done,
		failure:  m.failure,
		cc:       make([]bool, n),
		stats:    m.stats.Clone(),
		regs:     m.regs.Snapshot(),
		memory:   memState,
	}
	for fu := 0; fu < n; fu++ {
		s.cc[fu] = m.CC(fu)
	}
	if m.lockstep {
		s.pc = []isa.Addr{m.pc[0]}
		s.stall = []uint32{m.wordStall}
		return s, nil
	}
	s.pc = append([]isa.Addr(nil), m.pc...)
	s.ccValid = make([]bool, n)
	s.halted = make([]bool, n)
	s.prevSS = make([]isa.Sync, n)
	s.prevState = m.prevState
	s.sset = append([]int(nil), m.tracker.sset...)
	s.nFailed = m.nFailed
	if m.code != nil {
		for fu := 0; fu < n; fu++ {
			bit := uint8(1) << fu
			s.ccValid[fu] = m.ccValidBits&bit != 0
			s.halted[fu] = m.haltedBits&bit != 0
			if m.prevSSBits&bit != 0 {
				s.prevSS[fu] = isa.Done
			}
		}
	} else {
		copy(s.ccValid, m.ccValid)
		copy(s.halted, m.halted)
		copy(s.prevSS, m.prevSS)
	}
	if m.inject != nil {
		s.stall = append([]uint32(nil), m.stall...)
		s.failed = append([]bool(nil), m.failed...)
	}
	return s, nil
}

// Restore rewinds the machine to a snapshot, including any latched
// terminal error (restoring a pre-failure snapshot clears the failure,
// which is what makes checkpoint-retry possible). The injector's retry
// attempt is deliberately NOT architectural state: the caller bumps it
// via Injector.NextAttempt so the replay draws fresh transient faults.
//
// A snapshot whose shape does not fit the machine — another FU count,
// the other machine mode, or a PC past the end of the program (a
// checkpoint from some other program that decoded cleanly) — is
// refused with an error, leaving the machine untouched.
func (m *Machine) Restore(s *Snapshot) error {
	if s.lockstep != m.lockstep {
		return m.errorf("snapshot (lockstep=%v) does not fit machine (lockstep=%v)", s.lockstep, m.lockstep)
	}
	if len(s.cc) != m.numFU {
		return m.errorf("snapshot of %d FUs does not fit machine of %d", len(s.cc), m.numFU)
	}
	for _, pc := range s.pc {
		if int(pc) >= m.prog.Len() {
			return m.errorf("snapshot PC %d lies outside the %d-word program", pc, m.prog.Len())
		}
	}
	ckpt, ok := m.memory.(mem.Checkpointable)
	if !ok {
		return m.errorf("memory model %T does not support checkpointing", m.memory)
	}
	if err := ckpt.RestoreState(s.memory); err != nil {
		return m.errorf("restore: %w", err)
	}
	m.regs.Restore(s.regs)
	m.cycle = s.cycle
	m.done = s.done
	m.failure = s.failure
	m.stats = s.stats.Clone()
	copy(m.cc, s.cc)
	m.ccBits = 0
	for fu, v := range s.cc {
		if v {
			m.ccBits |= uint8(1) << fu
		}
	}
	if m.lockstep {
		m.pc[0] = s.pc[0]
		m.wordStall = s.stall[0]
		return nil
	}
	copy(m.pc, s.pc)
	copy(m.ccValid, s.ccValid)
	copy(m.halted, s.halted)
	copy(m.prevSS, s.prevSS)
	m.prevState = s.prevState
	copy(m.tracker.sset, s.sset)
	if m.code != nil {
		m.ccValidBits, m.haltedBits, m.prevSSBits = 0, 0, 0
		for fu := 0; fu < m.numFU; fu++ {
			bit := uint8(1) << fu
			if s.ccValid[fu] {
				m.ccValidBits |= bit
			}
			if s.halted[fu] {
				m.haltedBits |= bit
			}
			if s.prevSS[fu] == isa.Done {
				m.prevSSBits |= bit
			}
		}
	}
	if m.inject != nil {
		if s.stall != nil {
			copy(m.stall, s.stall)
			copy(m.failed, s.failed)
		} else {
			for fu := range m.stall {
				m.stall[fu] = 0
				m.failed[fu] = false
			}
		}
		m.nFailed = s.nFailed
	}
	return nil
}

// errorf builds a host-side machine error (snapshot, restore) under the
// machine's package prefix: "vliw: " in lockstep mode, else "core: ".
func (m *Machine) errorf(format string, args ...any) error {
	prefix := "core: "
	if m.lockstep {
		prefix = "vliw: "
	}
	return fmt.Errorf(prefix+format, args...)
}
