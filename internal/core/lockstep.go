package core

import (
	"ximd/internal/isa"
)

// This file is lockstep mode: the paper's VLIW baseline (vsim, Section
// 4.1) run on the XIMD datapath under a single sequencer. A lockstep
// program is an XIMD program whose parcels all carry the word's one
// control operation (Section 3.1; PredecodeLockstep checks it), so the
// decode table, the fuser, the fused runtime, and snapshots are the
// XIMD machine's own. What differs is the sequencer, and with it the
// architecture-defining behaviour the VLIW shows:
//
//   - the word's control operation is evaluated once per cycle (the
//     branch counters count words, not parcels), with one PC, pc[0];
//   - every cycle runs exactly one instruction stream, so the partition
//     tracker stays idle and HaltedCycles/SyncWaitCycles stay zero;
//   - an injected load latency stalls the whole word for the slowest
//     load in it, charging every FU a stall cycle;
//   - a hard FU failure is terminal the cycle it lands, since every
//     word needs every FU (XIMD instead completes degraded);
//   - errors read "vliw: cycle N, FUk: ..." and trace records carry the
//     single PC.
//
// Per-FU op attribution happens at word commit: a cycle that faults
// mid-word contributes no partial counts, so every counted cycle
// attributes all NumFU FU-cycles (the profiler's attribution invariant).
// stepLockstep runs the fast engine's micro-op rows; stepLockstepRef is
// the reference parcel interpreter, kept as the differential oracle.

// stepLockstep executes one lockstep cycle on the pre-decoded engine.
func (m *Machine) stepLockstep() (running bool, err error) {
	if m.failure != nil {
		return false, m.failure
	}
	if m.done {
		return false, nil
	}
	if m.cycle >= m.config.MaxCycles {
		return false, m.fail(m.simErr(-1, ErrMaxCycles))
	}
	inj := m.inject
	if inj != nil {
		if consumed, running, err := m.lockstepInject(); consumed {
			return running, err
		}
	}
	n := m.numFU
	base := int(m.pc[0]) * n
	word := m.code[base : base+n]

	m.regs.BeginCycle()
	shared := m.shared
	if shared != nil {
		shared.BeginCycle(m.cycle)
	} else {
		m.memory.BeginCycle(m.cycle)
	}
	if m.config.Tracer != nil {
		m.traceLockstep(false)
	}

	var ccSet, ccVal uint8
	for fu := range word {
		u := &word[fu]
		if u.Flags&flagNop != 0 {
			continue
		}
		if inj != nil &&
			(u.Flags&(flagReadsA|flagAImm) == flagReadsA || u.Flags&(flagReadsB|flagBImm) == flagReadsB) &&
			inj.DropRegPort(m.cycle, fu) {
			return false, m.failFU(fu, errRegPortDrop())
		}
		var a, b isa.Word
		if u.Flags&(flagReadsA|flagAImm) == flagReadsA {
			v, rerr := m.regs.Read(fu, u.AReg)
			if rerr != nil {
				return false, m.failFU(fu, rerr)
			}
			a = v
		} else {
			a = u.AImm
		}
		if u.Flags&(flagReadsB|flagBImm) == flagReadsB {
			v, rerr := m.regs.Read(fu, u.BReg)
			if rerr != nil {
				return false, m.failFU(fu, rerr)
			}
			b = v
		} else {
			b = u.BImm
		}
		switch u.Op {
		case isa.OpLoad:
			m.stats.Loads++
			addr := uint32(a.Int() + b.Int())
			if inj != nil && inj.MemNAK(m.cycle, fu, addr) {
				return false, m.failFU(fu, errMemNAK(addr))
			}
			var v isa.Word
			var lerr error
			if shared != nil {
				v, lerr = shared.LoadFast(fu, addr)
			} else {
				v, lerr = m.memory.Load(fu, addr)
			}
			if lerr != nil {
				return false, m.failFU(fu, lerr)
			}
			if inj != nil {
				if mask := inj.FlipMask(m.cycle, fu, addr); mask != 0 {
					v ^= isa.Word(mask)
					m.stats.BitFlips++
				}
				m.wordLat = max(m.wordLat, inj.LoadLatency(m.cycle, fu, addr))
			}
			if werr := m.stageRegWrite(fu, u.Dest, v); werr != nil {
				return false, m.fail(werr)
			}
		case isa.OpStore:
			m.stats.Stores++
			if inj != nil && inj.MemNAK(m.cycle, fu, uint32(b.Int())) {
				return false, m.failFU(fu, errMemNAK(uint32(b.Int())))
			}
			var serr error
			if shared != nil {
				serr = shared.StoreFast(fu, uint32(b.Int()), a)
			} else {
				serr = m.memory.Store(fu, uint32(b.Int()), a)
			}
			if serr != nil {
				if serr = m.storeFault(fu, serr); serr != nil {
					return false, m.fail(serr)
				}
			}
		default:
			res, cc, aerr := isa.EvalALU(u.Op, a, b)
			if aerr != nil {
				return false, m.failFU(fu, aerr)
			}
			if u.Flags&flagWritesCC != 0 {
				bit := uint8(1) << fu
				ccSet |= bit
				if cc {
					ccVal |= bit
				}
			} else if u.Flags&flagWritesReg != 0 {
				if werr := m.stageRegWrite(fu, u.Dest, res); werr != nil {
					return false, m.fail(werr)
				}
			}
		}
	}

	// The sequencer: every parcel carries the word's control operation,
	// so FU 0's is the word's.
	seq := &word[0]
	halt := false
	var next isa.Addr
	switch seq.kind() {
	case isa.CtrlGoto:
		next = seq.t1
	case isa.CtrlHalt:
		halt = true
	case isa.CtrlCond:
		m.stats.CondBranches++
		if seq.ctrl.Eval(m.ccBits, 0) {
			m.stats.TakenBranches++
			next = seq.t1
		} else {
			next = seq.t2
		}
	}

	m.regs.Commit()
	if shared != nil {
		shared.Commit()
	} else {
		m.memory.Commit()
	}
	m.ccBits = (m.ccBits &^ ccSet) | ccVal
	m.stats.Cycles++
	m.stats.StreamHistogram[1]++
	for fu := range word {
		if word[fu].Flags&flagNop != 0 {
			m.stats.Nops[fu]++
		} else {
			m.stats.DataOps[fu]++
		}
	}
	return m.lockstepAdvance(next, halt)
}

// stepLockstepRef executes one lockstep cycle by interpreting the
// word's parcels directly — the VLIW reference interpreter, sharing the
// XIMD reference engine's data path (execData).
func (m *Machine) stepLockstepRef() (running bool, err error) {
	if m.failure != nil {
		return false, m.failure
	}
	if m.done {
		return false, nil
	}
	if m.cycle >= m.config.MaxCycles {
		return false, m.fail(m.simErr(-1, ErrMaxCycles))
	}
	if m.inject != nil {
		if consumed, running, err := m.lockstepInject(); consumed {
			return running, err
		}
	}
	word := &m.prog.Instrs[m.pc[0]]

	m.regs.BeginCycle()
	m.memory.BeginCycle(m.cycle)
	m.ccWrites = m.ccWrites[:0]
	if m.config.Tracer != nil {
		m.traceLockstep(false)
	}
	for fu := 0; fu < m.numFU; fu++ {
		if _, err := m.execData(fu, word[fu].Data); err != nil {
			return false, m.fail(err)
		}
	}

	ctrl := word[0].Ctrl
	halt := false
	var next isa.Addr
	switch ctrl.Kind {
	case isa.CtrlGoto:
		next = ctrl.T1
	case isa.CtrlHalt:
		halt = true
	case isa.CtrlCond:
		m.stats.CondBranches++
		if isa.EvalCond(ctrl, m.cc, nil, m.numFU) {
			m.stats.TakenBranches++
			next = ctrl.T1
		} else {
			next = ctrl.T2
		}
	}

	m.regs.Commit()
	m.memory.Commit()
	for _, w := range m.ccWrites {
		m.cc[w.fu] = w.val
	}
	m.stats.Cycles++
	m.stats.StreamHistogram[1]++
	for fu := 0; fu < m.numFU; fu++ {
		if word[fu].Data.Op == isa.OpNop {
			m.stats.Nops[fu]++
		} else {
			m.stats.DataOps[fu]++
		}
	}
	return m.lockstepAdvance(next, halt)
}

// lockstepAdvance ends a committed lockstep word: the cycle count, the
// whole-word stall its loads left behind, and the sequencer's move.
func (m *Machine) lockstepAdvance(next isa.Addr, halt bool) (running bool, err error) {
	m.cycle++
	if m.inject != nil {
		m.wordStall = m.wordLat
	}
	if halt {
		m.done = true
		return false, nil
	}
	m.pc[0] = next
	return true, nil
}

// lockstepInject runs the cycle-top injection checks: a due hard FU
// failure is terminal at once, and a pending whole-word stall consumes
// the cycle. It reports whether the cycle was consumed and, if so,
// Step's result.
func (m *Machine) lockstepInject() (consumed, running bool, err error) {
	if fu, ok := m.inject.FirstFailure(m.cycle); ok {
		return true, false, m.fail(m.simErr(fu, ErrFUFailed))
	}
	if m.wordStall > 0 {
		if m.config.Tracer != nil {
			m.traceLockstep(true)
		}
		m.stats.Cycles++
		m.stats.StreamHistogram[1]++
		for fu := 0; fu < m.numFU; fu++ {
			m.stats.StallCycles[fu]++
		}
		m.wordStall--
		m.cycle++
		return true, true, nil
	}
	m.wordLat = 0
	return false, false, nil
}

// traceLockstep emits a lockstep cycle record: the single PC, the
// registered condition codes, and the word's parcels — or, on a
// whole-word stall cycle, no parcels and every FU stalled.
func (m *Machine) traceLockstep(stalled bool) {
	if m.code != nil {
		for fu := 0; fu < m.numFU; fu++ {
			m.cc[fu] = m.ccBits&(uint8(1)<<fu) != 0
		}
	}
	m.record = CycleRecord{Cycle: m.cycle, PC: m.pc[:1], CC: m.cc}
	if stalled {
		m.record.Stalled = m.stalledNow
	} else {
		m.record.Parcels = m.parcels
		copy(m.parcels, m.prog.Instrs[m.pc[0]][:m.numFU])
	}
	m.config.Tracer.Cycle(&m.record)
}
