package core

import (
	"fmt"

	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
)

// This file is the fast execution engine: the per-cycle interpreter over
// the pre-decoded micro-op table built by decodeProgram. It reproduces
// the reference Step (machine.go) phase for phase — fetch, data path,
// control path, trace/statistics, commit — with the same observable
// effects at every point, including statistics counters on cycles that
// end in an error. Differences are purely representational:
//
//   - parcels are fetched from the flat micro-op table instead of being
//     re-classified from the program;
//   - CC, CC-validity, SS, and halt state live in packed uint8 vectors
//     (bit i == FU i); the slice forms are materialized only for traces;
//   - branch conditions evaluate via CompiledCond over the packed
//     vectors instead of isa.EvalCond's per-FU loops;
//   - when the memory model is the common *mem.Shared, loads and stores
//     call its concrete fast paths, skipping interface dispatch.
//
// Error construction lives in the small fault helpers below so the hot
// loop body stays free of fmt/alloc machinery: steady-state execution
// performs zero allocations per cycle (enforced by TestStepAllocs).

// stepFast executes one machine cycle on the pre-decoded engine.
func (m *Machine) stepFast() (running bool, err error) {
	if m.failure != nil {
		return false, m.failure
	}
	if m.done {
		return false, nil
	}
	if m.cycle >= m.config.MaxCycles {
		return false, m.fail(&SimError{Cycle: m.cycle, FU: -1, Err: ErrMaxCycles})
	}
	inj := m.inject
	if inj != nil {
		m.markFailures()
	}

	m.regs.BeginCycle()
	shared := m.shared
	if shared != nil {
		shared.BeginCycle(m.cycle)
	} else {
		m.memory.BeginCycle(m.cycle)
	}

	n := m.numFU
	haltedBits := m.haltedBits

	// Phase 1: fetch. SS is combinational — derived from the fetched
	// micro-ops — so it must be known before any control evaluation. A
	// halted FU holds its sync signal at DONE; hard-failed and stalled
	// FUs fetch nothing and hold BUSY (their ss bit stays clear).
	ssBits := haltedBits
	for fu := 0; fu < n; fu++ {
		bit := uint8(1) << fu
		if haltedBits&bit != 0 {
			continue
		}
		if inj != nil {
			if m.failed[fu] {
				m.stalledNow[fu] = false
				continue
			}
			if m.stall[fu] > 0 {
				m.stalledNow[fu] = true
				continue
			}
			m.stalledNow[fu] = false
		}
		u := &m.code[int(m.pc[fu])*n+fu]
		if u.trap() {
			return false, m.failTrap(fu)
		}
		if u.syncDone() {
			ssBits |= bit
		}
		m.uops[fu] = u
	}
	m.ssBits = ssBits

	// Phase 2: data path. Operand reads observe start-of-cycle state;
	// writes are staged. CC writes collect into set/value masks and apply
	// at commit.
	wrote := false
	var ccSet, ccVal uint8
	for fu := 0; fu < n; fu++ {
		bit := uint8(1) << fu
		if haltedBits&bit != 0 {
			continue
		}
		if inj != nil && (m.failed[fu] || m.stalledNow[fu]) {
			continue
		}
		u := m.uops[fu]
		if inj != nil &&
			(u.Flags&(flagReadsA|flagAImm) == flagReadsA || u.Flags&(flagReadsB|flagBImm) == flagReadsB) &&
			inj.DropRegPort(m.cycle, fu) {
			return false, m.failFU(fu, errRegPortDrop())
		}
		// Operand sources: a register when the read flag is set without
		// the immediate flag; otherwise the decoded immediate, which is
		// zero for operands the class does not read.
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
		case isa.OpNop:
			// No data-path effect; counted with the cycle statistics.
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
				m.stall[fu] = inj.LoadLatency(m.cycle, fu, addr)
			}
			if werr := m.stageRegWrite(fu, u.Dest, v); werr != nil {
				return false, m.fail(werr)
			}
			wrote = true
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
			wrote = true
		default:
			res, cc, aerr := isa.EvalALU(u.Op, a, b)
			if aerr != nil {
				return false, m.failFU(fu, aerr)
			}
			if u.Flags&flagWritesCC != 0 {
				ccSet |= bit
				if cc {
					ccVal |= bit
				}
				wrote = true
			} else if u.Flags&flagWritesReg != 0 {
				if werr := m.stageRegWrite(fu, u.Dest, res); werr != nil {
					return false, m.fail(werr)
				}
				wrote = true
			}
		}
	}

	// Phase 3: control path. Each sequencer evaluates its compiled
	// condition over the packed CC vector and the SS network —
	// combinational by default, registered under the ablation.
	condSrc := ssBits
	if m.config.RegisteredSS {
		condSrc = m.prevSSBits
	}
	ccBits := m.ccBits
	for fu := 0; fu < n; fu++ {
		bit := uint8(1) << fu
		if haltedBits&bit != 0 {
			m.trans[fu] = transition{halted: true}
			continue
		}
		if inj != nil {
			if m.failed[fu] {
				// A dead FU's control state determines nothing: it leaves
				// its SSET and freezes as a singleton, like a halted FU.
				m.trans[fu] = transition{halted: true}
				continue
			}
			if m.stalledNow[fu] {
				m.trans[fu] = transition{pc: m.pc[fu], next: m.pc[fu], tag: stallTag(m.pc[fu])}
				m.nextPC[fu] = m.pc[fu]
				m.willHalt[fu] = false
				continue
			}
		}
		u := m.uops[fu]
		var next isa.Addr
		halt := false
		switch u.kind() {
		case isa.CtrlGoto:
			next = u.t1
		case isa.CtrlHalt:
			halt = true
		case isa.CtrlCond:
			m.stats.CondBranches++
			if u.ctrl.Eval(ccBits, condSrc) {
				m.stats.TakenBranches++
				next = u.t1
			} else {
				next = u.t2
			}
		}
		m.nextPC[fu] = next
		m.willHalt[fu] = halt
		m.trans[fu] = transition{pc: m.pc[fu], next: next, halting: halt, tag: u.tag}
	}

	// Phase 4: trace the cycle as observed (pre-commit state), then fold
	// it into the statistics.
	if m.config.Tracer != nil {
		m.traceFast()
	}
	m.stats.observeStreams(m.tracker.numSSETs())
	for fu := 0; fu < n; fu++ {
		bit := uint8(1) << fu
		switch {
		case haltedBits&bit != 0:
			m.stats.HaltedCycles[fu]++
		case inj != nil && m.failed[fu]:
			m.stats.FailedCycles[fu]++
		case inj != nil && m.stalledNow[fu]:
			m.stats.StallCycles[fu]++
		case m.uops[fu].Flags&flagNop != 0:
			m.stats.Nops[fu]++
			if m.uops[fu].syncCond() {
				m.stats.SyncWaitCycles[fu]++
			}
		default:
			m.stats.DataOps[fu]++
		}
	}

	// Phase 5: commit. Writes become visible; PCs advance; the partition
	// tracker digests this cycle's transitions.
	m.regs.Commit()
	if shared != nil {
		shared.Commit()
	} else {
		m.memory.Commit()
	}
	m.ccBits = (m.ccBits &^ ccSet) | ccVal
	m.ccValidBits |= ccSet
	wrote = wrote || ccSet != 0
	allHalted := true
	allSettled := true // every FU halted or hard-failed
	for fu := 0; fu < n; fu++ {
		bit := uint8(1) << fu
		if haltedBits&bit != 0 {
			continue
		}
		if inj != nil {
			if m.failed[fu] {
				allHalted = false
				continue
			}
			if m.stalledNow[fu] {
				m.stall[fu]--
				// A draining stall counter is progress: suppress the
				// livelock fingerprint while any load is in flight.
				wrote = true
				allHalted = false
				allSettled = false
				continue
			}
		}
		if m.willHalt[fu] {
			haltedBits |= bit
		} else {
			m.pc[fu] = m.nextPC[fu]
			allHalted = false
			allSettled = false
		}
	}
	m.haltedBits = haltedBits
	m.tracker.update(m.trans)
	m.prevSSBits = ssBits
	m.cycle++
	if allHalted {
		m.done = true
		return false, nil
	}
	if inj != nil && allSettled && m.nFailed > 0 {
		// Degraded completion: every surviving stream has halted; only
		// hard-failed FUs remain. Report the failure after the survivors'
		// work is architecturally committed.
		return false, m.fail(&SimError{Cycle: m.cycle - 1, FU: m.firstFailedFU(), Err: errDegraded()})
	}

	if m.config.DetectLivelock {
		if err := m.checkLivelock(wrote, m.ccBits, ssBits, haltedBits); err != nil {
			return false, m.fail(err)
		}
	}
	return true, nil
}

// traceFast materializes the packed state into the machine's slice
// scratch and emits the cycle record. Only the traced path pays this;
// untraced runs never touch the slice forms.
func (m *Machine) traceFast() {
	for fu := 0; fu < m.numFU; fu++ {
		bit := uint8(1) << fu
		m.cc[fu] = m.ccBits&bit != 0
		m.ccValid[fu] = m.ccValidBits&bit != 0
		halted := m.haltedBits&bit != 0
		m.halted[fu] = halted
		switch {
		case halted:
			m.ss[fu] = isa.Done
			m.parcels[fu] = isa.Parcel{}
		case m.inject != nil && (m.failed[fu] || m.stalledNow[fu]):
			m.ss[fu] = isa.Busy
			m.parcels[fu] = isa.Parcel{}
		default:
			p := m.prog.Parcel(m.pc[fu], fu)
			m.ss[fu] = p.Sync
			m.parcels[fu] = p
		}
	}
	m.record = CycleRecord{
		Cycle:     m.cycle,
		PC:        m.pc,
		CC:        m.cc,
		CCValid:   m.ccValid,
		SS:        m.ss,
		Halted:    m.halted,
		Partition: m.tracker.partition(),
		Parcels:   m.parcels,
	}
	if m.inject != nil {
		m.record.Stalled = m.stalledNow
		m.record.Failed = m.failed
	}
	m.config.Tracer.Cycle(&m.record)
}

// stageRegWrite stages a register write, deferring all failure handling
// to the cold path so the call inlines into the step loop.
func (m *Machine) stageRegWrite(fu int, reg uint8, v isa.Word) error {
	if err := m.regs.Write(fu, reg, v); err != nil {
		return m.regWriteFault(fu, err)
	}
	return nil
}

// regWriteFault resolves a failed register write: a tolerated conflict
// is counted and absorbed; anything else gains cycle/FU context.
func (m *Machine) regWriteFault(fu int, err error) error {
	if _, isConflict := err.(*regfile.WriteConflictError); isConflict && m.config.TolerateConflicts {
		m.stats.RegConflicts++
		m.stats.PortConflicts[fu]++
		return nil
	}
	return m.simErr(fu, err)
}

// storeFault resolves a failed memory store, mirroring regWriteFault.
func (m *Machine) storeFault(fu int, err error) error {
	if _, isConflict := err.(*mem.ConflictError); isConflict && m.config.TolerateConflicts {
		m.stats.MemConflicts++
		return nil
	}
	return m.simErr(fu, err)
}

// simErr wraps an execution fault with cycle and FU context (fu -1:
// not attributable to one FU). A lockstep machine keeps the VLIW
// baseline's error text, "vliw: cycle N, FUk: ...".
func (m *Machine) simErr(fu int, err error) error {
	e := &SimError{Cycle: m.cycle, FU: fu, Err: err}
	if m.lockstep {
		return fmt.Errorf("vliw: %w", e)
	}
	return e
}

// failFU latches an execution fault with cycle and FU context.
func (m *Machine) failFU(fu int, err error) error {
	return m.fail(m.simErr(fu, err))
}

// failTrap latches the trap-parcel fault with the reference engine's
// exact message.
func (m *Machine) failTrap(fu int) error {
	return m.fail(&SimError{Cycle: m.cycle, FU: fu,
		Err: fmt.Errorf("executed trap parcel at address %d (hole in instruction stream)", m.pc[fu])})
}
