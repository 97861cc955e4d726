// Package core implements the XIMD-1 machine model of Wolfe & Shen
// (ASPLOS 1991), Sections 2.2–2.4: eight homogeneous functional units,
// each with its own program counter and sequencer (the next-state
// functions δ1..δn of Figure 5), a condition-code register CC_i per FU
// (the data-path state abstraction sd_i), and a synchronization signal
// SS_i per FU (the control-path state abstraction of S_i), all over a
// shared multi-ported register file and an idealized one-cycle memory.
//
// Timing model. The machine is fully synchronous. During cycle t:
//
//   - operand reads and branch-condition reads of CC observe the state
//     registered at the end of cycle t-1;
//   - SS_i is combinational: it carries the Sync field of the parcel FU i
//     executes at cycle t, and every sequencer sees it the same cycle
//     (Figure 8 distributes SS directly into the condition PAL). This is
//     what makes the ALL-SS barrier of Example 3 join all threads in a
//     single cycle;
//   - all register, memory, and CC writes become visible at cycle t+1.
//
// Termination. The paper's research model leaves program termination
// undefined; this implementation adds an explicit halt control operation.
// Simulation ends when every FU has halted. A halted FU drives SS = DONE
// so that barriers involving it do not deadlock.
package core

import (
	"errors"
	"fmt"

	"ximd/internal/inject"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
)

// EngineKind selects the execution engine of a Machine.
type EngineKind uint8

const (
	// EngineFast (the default) executes the program pre-decoded: at New
	// the whole program is decoded into a flat micro-op table with operand
	// kinds resolved, class flags baked in, and branch conditions compiled
	// to bitmask compares. Cycle-for-cycle equivalent to EngineReference.
	EngineFast EngineKind = iota
	// EngineReference interprets parcels directly from the program each
	// cycle — the original, obviously-correct interpreter, kept as the
	// oracle for differential testing.
	EngineReference
)

// Config parameterizes a Machine.
type Config struct {
	// Engine selects the execution engine; the zero value is EngineFast.
	// Both engines implement the identical architectural semantics; the
	// differential tests hold them to identical cycle counts, statistics,
	// traces, and final state.
	Engine EngineKind
	// Memory is the memory model; nil selects an idealized shared memory
	// of the default size (Section 2.3).
	Memory mem.Memory
	// MaxCycles aborts runaway simulations; 0 selects DefaultMaxCycles.
	MaxCycles uint64
	// TolerateConflicts makes same-cycle register/memory write conflicts
	// non-fatal (they are still counted). The paper calls the outcome
	// undefined; the tolerant resolution is documented last-staged-wins.
	TolerateConflicts bool
	// DetectLivelock stops the simulation with ErrLivelock when the
	// architectural state reaches a fixed point with FUs still running.
	// Leave it off for programs that poll memory-mapped devices, whose
	// load values legitimately change with the cycle number. Lockstep
	// machines ignore it.
	DetectLivelock bool
	// Inject, if non-nil and enabled, perturbs the datapath with seeded
	// variable memory latency, transient faults, and hard FU failures.
	// The injector is architectural state: both engines interrogate it at
	// the same points and remain cycle-identical under any campaign. A
	// nil or disabled injector is byte-identical to the idealized model.
	Inject *inject.Injector
	// Decoded, if non-nil, supplies the program's pre-built fast-engine
	// micro-op table (core.Predecode). New then skips re-validating and
	// re-decoding the program — the ximdd decoded-program cache's hit
	// path. The table must have been built from the same *isa.Program
	// passed to New. A table from PredecodeLockstep also selects
	// lockstep (VLIW) mode, on either engine.
	Decoded *Decoded
	// DisableFusion turns off the fused superop execution engine: Run and
	// StepN then execute strictly cycle by cycle even where straight-line
	// runs could fuse. Semantics are identical either way (the
	// differential nets hold fused and unfused runs byte-identical); the
	// knob exists for those tests, for benchmarking the fusion win, and
	// as an escape hatch.
	DisableFusion bool
	// RegisteredSS is an ablation of the Figure 8 design decision: instead
	// of the paper's combinational SS network (sequencers see the sync
	// signals of the parcels executing this cycle), conditions read the SS
	// values registered at the end of the previous cycle. Barriers then
	// release one cycle after the last arrival instead of in the same
	// cycle, and every SS-gated handoff pays one extra cycle — measured by
	// the xbench ablation experiment.
	RegisteredSS bool
	// Tracer, if non-nil, receives one record per executed cycle.
	Tracer Tracer
}

// DefaultMaxCycles bounds a simulation when Config.MaxCycles is zero.
const DefaultMaxCycles = 50_000_000

// Tracer observes machine execution cycle by cycle. The record and its
// slices are reused across cycles; implementations must copy anything
// they retain.
type Tracer interface {
	Cycle(rec *CycleRecord)
}

// CycleRecord is the observable state of one executed cycle. A lockstep
// machine's record has the VLIW shape: PC holds the one sequencer's PC,
// CC the condition codes, Parcels the word (nil on a stall cycle, when
// Stalled is all true), and the other columns stay nil.
type CycleRecord struct {
	// Cycle is the cycle number, counting from 0.
	Cycle uint64
	// PC[i] is FU i's program counter at the start of the cycle (the
	// address of the parcel it executes this cycle).
	PC []isa.Addr
	// CC[i] is CC_i as registered at the start of the cycle — exactly the
	// "condition code register contents ... as they exist at the beginning
	// of each cycle" shown in Figure 10.
	CC []bool
	// CCValid[i] reports whether CC_i has been written since reset; the
	// paper's traces print unwritten codes as X.
	CCValid []bool
	// SS[i] is the synchronization signal driven during the cycle.
	SS []isa.Sync
	// Halted[i] reports whether FU i had halted before this cycle.
	Halted []bool
	// Partition is the SSET partition in effect during this cycle.
	Partition Partition
	// Parcels[i] is the parcel FU i executed this cycle (zero value for
	// halted FUs).
	Parcels []isa.Parcel
	// Stalled[i] reports whether FU i spent this cycle stalled on an
	// in-flight load (injected memory latency); Failed[i] whether it is
	// hard-failed. Both are nil when injection is disabled.
	Stalled []bool
	Failed  []bool
}

// SimError wraps an execution fault with cycle and FU context.
type SimError struct {
	Cycle uint64
	FU    int // -1 when not attributable to one FU
	Err   error
}

func (e *SimError) Error() string {
	if e.FU >= 0 {
		return fmt.Sprintf("cycle %d, FU%d: %v", e.Cycle, e.FU, e.Err)
	}
	return fmt.Sprintf("cycle %d: %v", e.Cycle, e.Err)
}

func (e *SimError) Unwrap() error { return e.Err }

// Sentinel errors returned (wrapped in SimError) by Step and Run. Match
// them through the SimError wrapper with errors.Is.
var (
	ErrMaxCycles = errors.New("maximum cycle count exceeded")
	ErrLivelock  = errors.New("livelock: architectural state reached a fixed point with FUs still running")
	// ErrTransient marks an injected transient fault (register read-port
	// drop, memory NAK). A transiently-faulted run is retryable: restore
	// a checkpoint, bump the injector attempt, and re-run.
	ErrTransient = errors.New("transient fault injected")
	// ErrFUFailed marks an injected hard functional-unit failure. On the
	// XIMD it is reported only after every surviving stream has finished
	// (degraded completion); the VLIW latches it the moment the failure
	// lands, since every instruction word needs every FU.
	ErrFUFailed = errors.New("functional unit hard failure injected")
)

// Transient-fault and degradation error text, built by one helper per
// fault so the fast and reference engines stay byte-identical.

func errRegPortDrop() error {
	return fmt.Errorf("register read ports dropped: %w", ErrTransient)
}

func errMemNAK(addr uint32) error {
	return fmt.Errorf("memory access to address %d not acknowledged: %w", addr, ErrTransient)
}

func errDegraded() error {
	return fmt.Errorf("surviving streams completed after hard FU failure: %w", ErrFUFailed)
}

// Machine is an XIMD-1 processor instance, or, built from a lockstep
// table (PredecodeLockstep), the VLIW baseline: the same datapath under
// one sequencer (lockstep.go).
type Machine struct {
	prog   *isa.Program
	numFU  int
	config Config

	regs   *regfile.File
	memory mem.Memory

	pc      []isa.Addr
	cc      []bool
	ccValid []bool
	halted  []bool
	cycle   uint64
	done    bool
	failure error // terminal error latched by the first failing Step

	// Lockstep (VLIW) mode, fixed by the Decoded table at New. pc[0] is
	// the one program counter; the partition tracker, halt vectors, and
	// per-FU stall state stay idle. wordStall counts the remaining
	// whole-word stall cycles, wordLat the slowest injected load latency
	// of the word in flight.
	lockstep  bool
	wordStall uint32
	wordLat   uint32

	tracker *partitionTracker
	stats   Stats

	// Injection state (nil / zero unless Config.Inject is enabled).
	// stall[fu] counts the remaining stall cycles of an in-flight load;
	// failed[fu] latches a hard FU failure; stalledNow[fu] marks FUs
	// spending the current cycle stalled.
	inject     *inject.Injector
	stall      []uint32
	failed     []bool
	stalledNow []bool
	nFailed    int

	// Fast-engine state (nil / unused under EngineReference). The packed
	// uint8 vectors mirror cc/ccValid/halted/SS bit i == FU i; the slice
	// forms are materialized from them only for tracing and accessors.
	code        []uop       // flat micro-op table, indexed [pc*numFU+fu]
	uops        []*uop      // per-cycle fetched micro-ops
	shared      *mem.Shared // devirtualized memory fast path, if applicable
	ccBits      uint8
	ccValidBits uint8
	haltedBits  uint8
	ssBits      uint8
	prevSSBits  uint8

	// Fused-engine state (fastrun.go). fuse is the program's immutable
	// superop table; fuseOK caches the static run preconditions (fast
	// engine, fusion enabled, no injection, no tracer, plain shared
	// memory) — device mappings and the dynamic machine state are
	// checked at entry.
	fuse   *fuseInfo
	fuseOK bool

	// Per-cycle scratch, reused across cycles.
	ss        []isa.Sync
	prevSS    []isa.Sync // last cycle's SS values (RegisteredSS ablation)
	parcels   []isa.Parcel
	nextPC    []isa.Addr
	willHalt  []bool
	ccWrites  []ccWrite
	trans     []transition
	record    CycleRecord
	prevState fingerprint
}

type ccWrite struct {
	fu  int
	val bool
}

// fingerprint is the livelock-detection digest of one committed cycle.
// CC, SS, and halt state are packed one bit per FU; SS_i is binary
// (BUSY/DONE), so the mask compare is equivalent to comparing the Sync
// values themselves.
type fingerprint struct {
	valid  bool
	wrote  bool // any register/memory/CC write staged this cycle
	pc     [isa.NumFU]isa.Addr
	cc     uint8
	ss     uint8
	halted uint8
}

// New creates a machine loaded with prog. Every FU starts at the program
// entry address with cleared registers, condition codes, and memory.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if cfg.Decoded != nil {
		if prog == nil {
			prog = cfg.Decoded.prog
		} else if prog != cfg.Decoded.prog {
			return nil, fmt.Errorf("core: Config.Decoded was built from a different program")
		}
	} else if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid program: %w", err)
	}
	if cfg.Memory == nil {
		cfg.Memory = mem.NewShared(0)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	n := prog.NumFU
	m := &Machine{
		prog:     prog,
		numFU:    n,
		config:   cfg,
		lockstep: cfg.Decoded != nil && cfg.Decoded.lockstep,
		regs:     regfile.New(),
		memory:   cfg.Memory,
		pc:       make([]isa.Addr, n),
		cc:       make([]bool, n),
		stats:    NewStats(n),
	}
	for i := range m.pc {
		m.pc[i] = prog.Entry
	}
	if !m.lockstep || cfg.Tracer != nil {
		m.parcels = make([]isa.Parcel, n) // the trace's parcel column
	}
	if !m.lockstep {
		// Per-FU sequencer state, which a lockstep machine never reads.
		m.ccValid = make([]bool, n)
		m.halted = make([]bool, n)
		m.tracker = newPartitionTracker(n)
		m.ss = make([]isa.Sync, n)
		m.prevSS = make([]isa.Sync, n)
		m.nextPC = make([]isa.Addr, n)
		m.willHalt = make([]bool, n)
		m.trans = make([]transition, n)
	}

	if cfg.Inject.Enabled() {
		m.inject = cfg.Inject
		m.stalledNow = make([]bool, n)
		if m.lockstep {
			// A lockstep stall stops every FU: the trace's Stalled vector.
			for fu := range m.stalledNow {
				m.stalledNow[fu] = true
			}
		} else {
			m.stall = make([]uint32, n)
			m.failed = make([]bool, n)
		}
	}

	if cfg.Engine == EngineFast {
		if cfg.Decoded != nil {
			m.code = cfg.Decoded.code
			m.fuse = cfg.Decoded.fuse
		} else {
			m.code = decodeProgram(prog)
			m.fuse = fuseProgram(prog, m.code)
		}
		if !m.lockstep {
			m.uops = make([]*uop, n)
		}
		if sh, ok := cfg.Memory.(*mem.Shared); ok {
			m.shared = sh
		}
		m.fuseOK = m.fuse != nil && !cfg.DisableFusion &&
			m.inject == nil && cfg.Tracer == nil && m.shared != nil
	}
	return m, nil
}

// NumFU returns the machine's functional-unit count.
func (m *Machine) NumFU() int { return m.numFU }

// Cycle returns the number of cycles executed so far.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Done reports whether every FU has halted.
func (m *Machine) Done() bool { return m.done }

// Regs exposes the global register file for host initialization and
// inspection.
func (m *Machine) Regs() *regfile.File { return m.regs }

// Memory exposes the memory model.
func (m *Machine) Memory() mem.Memory { return m.memory }

// PC returns FU fu's current program counter (on a lockstep machine,
// the one sequencer's).
func (m *Machine) PC(fu int) isa.Addr {
	if m.lockstep {
		return m.pc[0]
	}
	return m.pc[fu]
}

// CC returns FU fu's condition code register.
func (m *Machine) CC(fu int) bool {
	if m.code != nil {
		return m.ccBits&(1<<fu) != 0
	}
	return m.cc[fu]
}

// Partition returns the SSET partition currently in effect: on a
// lockstep machine, always one SSET of every FU.
func (m *Machine) Partition() Partition {
	if m.lockstep {
		return Partition{sset: make([]int, m.numFU)}
	}
	return m.tracker.partition()
}

// HardFailed reports whether FU fu has been retired by an injected hard
// failure. Always false when injection is disabled.
func (m *Machine) HardFailed(fu int) bool { return m.failed != nil && m.failed[fu] }

// Stats returns a deep-copied snapshot of the accumulated execution
// statistics. The snapshot shares no state with the machine: it stays
// valid (and immutable) across further Step calls and may be handed to
// other goroutines.
func (m *Machine) Stats() Stats { return m.stats.Clone() }

// Err returns the terminal error latched by a failed Step, or nil.
func (m *Machine) Err() error { return m.failure }

// fail latches err as the machine's terminal state: every subsequent
// Step or Run returns the same error instead of resuming execution past
// the failure point.
func (m *Machine) fail(err error) error {
	m.failure = err
	return err
}

// Step executes one machine cycle. It returns (false, nil) once all FUs
// have halted. After any error the machine is dead: subsequent Step
// calls return the same error rather than executing past the failure.
func (m *Machine) Step() (running bool, err error) {
	if m.lockstep {
		if m.code != nil {
			return m.stepLockstep()
		}
		return m.stepLockstepRef()
	}
	if m.code != nil {
		return m.stepFast()
	}
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
		m.markFailures()
	}

	m.regs.BeginCycle()
	m.memory.BeginCycle(m.cycle)
	m.ccWrites = m.ccWrites[:0]
	wrote := false

	// Phase 1: fetch. SS is combinational — derived from the fetched
	// parcels — so it must be known before any control evaluation.
	for fu := 0; fu < m.numFU; fu++ {
		if m.halted[fu] {
			m.ss[fu] = isa.Done // a halted FU holds its sync signal at DONE
			m.parcels[fu] = isa.Parcel{}
			continue
		}
		if m.inject != nil {
			if m.failed[fu] {
				m.stalledNow[fu] = false
				m.ss[fu] = isa.Busy // a hard-failed FU's SS sticks at BUSY
				m.parcels[fu] = isa.Parcel{}
				continue
			}
			if m.stall[fu] > 0 {
				m.stalledNow[fu] = true
				m.ss[fu] = isa.Busy // an in-flight load holds its FU at BUSY
				m.parcels[fu] = isa.Parcel{}
				continue
			}
			m.stalledNow[fu] = false
		}
		p := m.prog.Parcel(m.pc[fu], fu)
		if p.Trap {
			return false, m.fail(&SimError{Cycle: m.cycle, FU: fu,
				Err: fmt.Errorf("executed trap parcel at address %d (hole in instruction stream)", m.pc[fu])})
		}
		m.parcels[fu] = p
		m.ss[fu] = p.Sync
	}

	// Phase 2: data path. Operand reads observe start-of-cycle state;
	// writes are staged. Stalled and failed FUs execute nothing.
	for fu := 0; fu < m.numFU; fu++ {
		if m.halted[fu] || (m.inject != nil && (m.failed[fu] || m.stalledNow[fu])) {
			continue
		}
		w, err := m.execData(fu, m.parcels[fu].Data)
		wrote = wrote || w
		if err != nil {
			return false, m.fail(err)
		}
	}

	// Phase 3: control path. Each sequencer evaluates its δi over the
	// registered CCs and the SS network — combinational by default,
	// registered (previous cycle's values) under the ablation.
	condSS := m.ss
	if m.config.RegisteredSS {
		condSS = m.prevSS
	}
	for fu := 0; fu < m.numFU; fu++ {
		if m.halted[fu] {
			m.trans[fu] = transition{halted: true}
			continue
		}
		if m.inject != nil {
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
		ctrl := m.parcels[fu].Ctrl
		var next isa.Addr
		var halt bool
		switch ctrl.Kind {
		case isa.CtrlGoto:
			next = ctrl.T1
		case isa.CtrlHalt:
			halt = true
		case isa.CtrlCond:
			taken := isa.EvalCond(ctrl, m.cc, condSS, m.numFU)
			if taken {
				next = ctrl.T1
			} else {
				next = ctrl.T2
			}
			m.stats.CondBranches++
			if taken {
				m.stats.TakenBranches++
			}
		}
		m.nextPC[fu] = next
		m.willHalt[fu] = halt
		m.trans[fu] = transition{pc: m.pc[fu], next: next, halting: halt, tag: ctrlTag(ctrl)}
	}

	// Phase 4: trace the cycle as observed (pre-commit state).
	if m.config.Tracer != nil {
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
	if m.inject == nil {
		m.stats.observeCycle(m.tracker.numSSETs(), m.parcels, m.halted)
	} else {
		m.stats.observeStreams(m.tracker.numSSETs())
		for fu := 0; fu < m.numFU; fu++ {
			switch {
			case m.halted[fu]:
				m.stats.HaltedCycles[fu]++
			case m.failed[fu]:
				m.stats.FailedCycles[fu]++
			case m.stalledNow[fu]:
				m.stats.StallCycles[fu]++
			case m.parcels[fu].Data.Op == isa.OpNop:
				m.stats.Nops[fu]++
				if syncWaitParcel(m.parcels[fu]) {
					m.stats.SyncWaitCycles[fu]++
				}
			default:
				m.stats.DataOps[fu]++
			}
		}
	}

	// Phase 5: commit. Writes become visible; PCs advance; the partition
	// tracker digests this cycle's transitions.
	m.regs.Commit()
	m.memory.Commit()
	for _, w := range m.ccWrites {
		m.cc[w.fu] = w.val
		m.ccValid[w.fu] = true
	}
	wrote = wrote || len(m.ccWrites) > 0
	allHalted := true
	allSettled := true // every FU halted or hard-failed
	for fu := 0; fu < m.numFU; fu++ {
		if m.halted[fu] {
			continue
		}
		if m.inject != nil {
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
			m.halted[fu] = true
		} else {
			m.pc[fu] = m.nextPC[fu]
			allHalted = false
			allSettled = false
		}
	}
	m.tracker.update(m.trans)
	copy(m.prevSS, m.ss)
	m.cycle++
	if allHalted {
		m.done = true
		return false, nil
	}
	if m.inject != nil && allSettled && m.nFailed > 0 {
		// Degraded completion: every surviving stream has halted; only
		// hard-failed FUs remain. Report the failure after the survivors'
		// work is architecturally committed.
		return false, m.fail(&SimError{Cycle: m.cycle - 1, FU: m.firstFailedFU(), Err: errDegraded()})
	}

	if m.config.DetectLivelock {
		var cc, ss, halted uint8
		for fu := 0; fu < m.numFU; fu++ {
			bit := uint8(1) << fu
			if m.cc[fu] {
				cc |= bit
			}
			if m.ss[fu] == isa.Done {
				ss |= bit
			}
			if m.halted[fu] {
				halted |= bit
			}
		}
		if err := m.checkLivelock(wrote, cc, ss, halted); err != nil {
			return false, m.fail(err)
		}
	}
	return true, nil
}

// markFailures latches newly-due hard FU failures at the top of a cycle.
func (m *Machine) markFailures() {
	for fu := 0; fu < m.numFU; fu++ {
		if !m.failed[fu] && !m.haltedFU(fu) && m.inject.FUFailed(fu, m.cycle) {
			m.failed[fu] = true
			m.nFailed++
		}
	}
}

// haltedFU reads FU fu's halt state on either engine.
func (m *Machine) haltedFU(fu int) bool {
	if m.code != nil {
		return m.haltedBits&(1<<fu) != 0
	}
	return m.halted[fu]
}

// firstFailedFU returns the lowest-numbered hard-failed FU (the one a
// degraded-completion error is attributed to), or -1.
func (m *Machine) firstFailedFU() int {
	for fu, f := range m.failed {
		if f {
			return fu
		}
	}
	return -1
}

// execData executes one data operation for fu, staging all writes.
// It reports whether any write was staged.
func (m *Machine) execData(fu int, d isa.DataOp) (wrote bool, err error) {
	cl := isa.ClassOf(d.Op)
	if m.inject != nil &&
		(cl.ReadsA() && d.A.Kind != isa.Imm || cl.ReadsB() && d.B.Kind != isa.Imm) &&
		m.inject.DropRegPort(m.cycle, fu) {
		return false, m.simErr(fu, errRegPortDrop())
	}
	var a, b isa.Word
	if cl.ReadsA() {
		if a, err = m.readOperand(fu, d.A); err != nil {
			return false, m.simErr(fu, err)
		}
	}
	if cl.ReadsB() {
		if b, err = m.readOperand(fu, d.B); err != nil {
			return false, m.simErr(fu, err)
		}
	}

	switch d.Op {
	case isa.OpNop:
		return false, nil
	case isa.OpLoad:
		m.stats.Loads++
		addr := uint32(a.Int() + b.Int())
		if m.inject != nil && m.inject.MemNAK(m.cycle, fu, addr) {
			return false, m.simErr(fu, errMemNAK(addr))
		}
		v, err := m.memory.Load(fu, addr)
		if err != nil {
			return false, m.simErr(fu, err)
		}
		if m.inject != nil {
			if mask := m.inject.FlipMask(m.cycle, fu, addr); mask != 0 {
				v ^= isa.Word(mask)
				m.stats.BitFlips++
			}
			if k := m.inject.LoadLatency(m.cycle, fu, addr); m.lockstep {
				m.wordLat = max(m.wordLat, k)
			} else {
				m.stall[fu] = k
			}
		}
		return true, m.writeReg(fu, d.Dest, v)
	case isa.OpStore:
		m.stats.Stores++
		if m.inject != nil && m.inject.MemNAK(m.cycle, fu, uint32(b.Int())) {
			return false, m.simErr(fu, errMemNAK(uint32(b.Int())))
		}
		if err := m.memory.Store(fu, uint32(b.Int()), a); err != nil {
			if _, isConflict := err.(*mem.ConflictError); isConflict && m.config.TolerateConflicts {
				m.stats.MemConflicts++
				return true, nil
			}
			return false, m.simErr(fu, err)
		}
		return true, nil
	default:
		res, cc, err := isa.EvalALU(d.Op, a, b)
		if err != nil {
			return false, m.simErr(fu, err)
		}
		if cl.WritesCC() {
			m.ccWrites = append(m.ccWrites, ccWrite{fu: fu, val: cc})
			return true, nil
		}
		if cl.WritesReg() {
			return true, m.writeReg(fu, d.Dest, res)
		}
		return false, nil
	}
}

func (m *Machine) readOperand(fu int, o isa.Operand) (isa.Word, error) {
	if o.Kind == isa.Imm {
		return o.Imm, nil
	}
	return m.regs.Read(fu, o.Reg)
}

func (m *Machine) writeReg(fu int, reg uint8, v isa.Word) error {
	err := m.regs.Write(fu, reg, v)
	if err != nil {
		if _, isConflict := err.(*regfile.WriteConflictError); isConflict && m.config.TolerateConflicts {
			m.stats.RegConflicts++
			m.stats.PortConflicts[fu]++
			return nil
		}
		return m.simErr(fu, err)
	}
	return nil
}

// checkLivelock flags a fixed point: identical PCs, CCs, SS pattern and
// halt state as the previous cycle with no writes staged in either. The
// caller supplies the post-commit CC/SS/halt state packed one bit per FU.
func (m *Machine) checkLivelock(wrote bool, cc, ss, halted uint8) error {
	var fp fingerprint
	fp.valid = true
	fp.wrote = wrote
	copy(fp.pc[:], m.pc)
	fp.cc, fp.ss, fp.halted = cc, ss, halted
	prev := m.prevState
	m.prevState = fp
	if prev.valid && !prev.wrote && !fp.wrote &&
		prev.pc == fp.pc && prev.cc == fp.cc && prev.ss == fp.ss && prev.halted == fp.halted {
		return &SimError{Cycle: m.cycle, FU: -1, Err: ErrLivelock}
	}
	return nil
}

// Run executes until every FU halts or an error occurs, returning the
// total cycle count. Run drives the machine through StepN, so eligible
// straight-line stretches execute on the fused superop engine; the
// observable outcome is identical to stepping cycle by cycle.
func (m *Machine) Run() (cycles uint64, err error) {
	for {
		running, err := m.StepN(1 << 62)
		if err != nil {
			return m.cycle, err
		}
		if !running {
			return m.cycle, nil
		}
	}
}
