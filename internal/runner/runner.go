// Package runner is the one shared code path for executing a simulation
// from external inputs: the xsim and vsim command-line tools and the
// ximdd service all load programs, configure machines, run them, and
// classify failures through this package, so the exit-code/error
// taxonomy and the stats JSON document exist in exactly one place.
//
// The lifecycle is split in two so callers can cache the expensive half:
//
//   - Load assembles (or decodes) and validates a program for one
//     architecture and pre-builds the fast-engine decode table. The
//     resulting Program is immutable and safe to share between
//     concurrent runs — it is the unit the ximdd decoded-program cache
//     stores.
//   - Run builds a fresh machine (registers, memory, injector) from a
//     Spec, executes it to completion with cooperative context
//     cancellation, and returns cycles, statistics, memory, and the
//     optional trace.
//
// Error taxonomy (the CLI exit codes, also reported by the service):
//
//	0  success
//	1  the simulation itself faulted (SimError, timeouts, cancellation)
//	2  bad host configuration (Spec errors: inject spec, machine config)
//	3  the program failed to load, assemble, or validate
package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"ximd/internal/asm"
	"ximd/internal/ckpt"
	"ximd/internal/core"
	"ximd/internal/hostcfg"
	"ximd/internal/inject"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/obs"
	"ximd/internal/trace"
	"ximd/internal/vliw"
)

// Arch selects the simulated architecture.
type Arch string

const (
	// ArchXIMD is the paper's XIMD-1 multi-sequencer machine (xsim).
	ArchXIMD Arch = "ximd"
	// ArchVLIW is the single-sequencer VLIW baseline (vsim).
	ArchVLIW Arch = "vliw"
)

// ParseArch parses an architecture name; the empty string selects XIMD.
func ParseArch(s string) (Arch, error) {
	switch s {
	case "", string(ArchXIMD):
		return ArchXIMD, nil
	case string(ArchVLIW):
		return ArchVLIW, nil
	}
	return "", &UsageError{Err: fmt.Errorf("unknown architecture %q (want %q or %q)", s, ArchXIMD, ArchVLIW)}
}

// LoadError classifies a failure to read, assemble, convert, or
// validate a program (exit code 3). Assembler failures preserve the
// asm.ErrorList inside, so line numbers survive to the caller.
type LoadError struct{ Err error }

func (e *LoadError) Error() string { return e.Err.Error() }
func (e *LoadError) Unwrap() error { return e.Err }

// UsageError classifies bad host configuration: malformed pokes, inject
// specs, or machine configuration (exit code 2).
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Exit codes shared by xsim, vsim, and the service's error taxonomy.
const (
	ExitOK    = 0 // successful run
	ExitSim   = 1 // the simulation itself faulted
	ExitUsage = 2 // bad flags or host configuration
	ExitLoad  = 3 // the program failed to load or assemble
)

// ExitCode maps an error through the taxonomy: nil → 0, LoadError → 3,
// UsageError → 2, anything else (simulation faults, deadlines,
// cancellation) → 1.
func ExitCode(err error) int {
	var le *LoadError
	var ue *UsageError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &ue):
		return ExitUsage
	case errors.As(err, &le):
		return ExitLoad
	default:
		return ExitSim
	}
}

// imageMagic is the first four bytes of an encoded program image
// ("XIMD" little-endian); anything else is assembly text.
var imageMagic = []byte{0x44, 0x4d, 0x49, 0x58}

// Program is a loaded, validated, pre-decoded program for one
// architecture — the immutable, shareable half of a run. A VLIW
// program's table is a lockstep one (vliw.Predecode), so both
// architectures run on core.Machine.
type Program struct {
	arch Arch
	dec  *core.Decoded
}

// Arch returns the architecture the program was loaded for.
func (p *Program) Arch() Arch { return p.arch }

// NumFU returns the functional-unit count of the loaded program.
func (p *Program) NumFU() int { return p.dec.Program().NumFU }

// FusibleWords reports how many instruction words of the loaded program
// begin or continue a fused superop run. Fusion tables are built by
// Load as part of predecode, so a cached Program carries them already —
// a decoded-program cache hit gets the fused fast path for free.
func (p *Program) FusibleWords() int { return p.dec.FusibleWords() }

// Load builds a Program from source bytes: an encoded binary image
// (detected by the XIMD magic) or assembly text. For ArchVLIW the
// program must be VLIW-style (identical control in every parcel,
// Section 3.1). All failures are LoadErrors.
func Load(arch Arch, source []byte) (*Program, error) {
	var xprog *isa.Program
	var err error
	if bytes.HasPrefix(source, imageMagic) {
		xprog, err = isa.ReadProgram(bytes.NewReader(source))
	} else {
		xprog, err = asm.Assemble(string(source))
	}
	if err != nil {
		return nil, &LoadError{Err: err}
	}
	switch arch {
	case ArchVLIW:
		vprog, err := vliw.FromXIMD(xprog)
		if err != nil {
			return nil, &LoadError{Err: fmt.Errorf("not VLIW-style code: %w", err)}
		}
		d, err := vliw.Predecode(vprog)
		if err != nil {
			return nil, &LoadError{Err: err}
		}
		return &Program{arch: ArchVLIW, dec: d}, nil
	default:
		d, err := core.Predecode(xprog)
		if err != nil {
			return nil, &LoadError{Err: err}
		}
		return &Program{arch: ArchXIMD, dec: d}, nil
	}
}

// Spec is the runtime half of a run: everything besides the program
// that determines the result. A run is a pure function of (Program,
// Spec) — same program bytes, architecture, seed, and inject spec
// reproduce the same cycles, statistics, and memory image.
type Spec struct {
	// MaxCycles bounds the run; 0 selects the machine default.
	MaxCycles uint64
	// TolerateConflicts makes same-cycle write conflicts non-fatal.
	TolerateConflicts bool
	// Seed is the fault-injection seed, used when Inject is non-empty.
	Seed int64
	// Inject is a fault-injection spec (inject.ParseSpec grammar), empty
	// for an idealized run.
	Inject string
	// RegPokes and MemPokes initialize architectural state before the run.
	RegPokes []hostcfg.RegPoke
	MemPokes []hostcfg.MemPoke
}

// Options selects per-run observation that is not part of the result
// contract.
type Options struct {
	// Trace records one trace.Record per executed cycle into
	// Result.Trace. VLIW records carry a single-element PC vector and no
	// SS/partition columns.
	Trace bool
	// FlightCycles, when positive, runs a flight recorder: the last
	// FlightCycles executed cycles are retained in Result.Flight
	// (oldest first) whatever way the run ends, so a faulting run's
	// final window of architectural state is available postmortem
	// without recording the whole run.
	FlightCycles int
	// CheckpointEvery, when positive, takes a durable-checkpoint
	// snapshot every CheckpointEvery cycles — at exact cycle boundaries,
	// which bulk stepping honors (StepN clamps fused superop runs) — and
	// hands each to the Checkpoint sink. Incompatible with Trace: a
	// resumed run cannot reconstruct the trace records recorded before
	// the snapshot, so a traced run could not honor the byte-identical
	// resume contract.
	CheckpointEvery uint64
	// Checkpoint receives each periodic snapshot when CheckpointEvery is
	// positive. The sink owns persistence and error accounting (the
	// service binds it to a ckpt.Store); the runner continues regardless
	// of what the sink does. Required when CheckpointEvery > 0.
	Checkpoint func(*ckpt.Checkpoint)
	// Span, when non-nil, parents run-phase child spans (build /
	// restore_checkpoint / run / checkpoint_write) under it. Tracing
	// happens only at phase boundaries — never inside the cycle loop —
	// so the engine's zero-alloc Step is untouched and a nil Span costs
	// nothing.
	Span *obs.Span
}

// Result is what a run produces. Stats is a deep-copied snapshot;
// Memory is the run's private memory image (for peeks). On a
// simulation fault the partial cycles/stats/trace up to the fault are
// still populated.
type Result struct {
	Arch   Arch
	Cycles uint64
	Stats  core.Stats
	Memory *mem.Shared
	Trace  []trace.Record
	// Flight is the flight recorder's window (Options.FlightCycles).
	Flight []trace.Record
}

// ctxCheckInterval is how many machine cycles run between cooperative
// context checks; it bounds cancellation latency without measurably
// slowing the hot loop.
const ctxCheckInterval = 4096

// Run executes spec against prog and returns the result. The context
// is checked between cycle batches, so deadlines and cancellation
// (sweep.Options.TaskTimeout, service shutdown) abort promptly; the
// context's error is returned as a simulation-class failure.
func Run(ctx context.Context, prog *Program, spec Spec, opts Options) (Result, error) {
	return execute(ctx, prog, spec, opts, nil)
}

// Resume restores a durable checkpoint and continues the run to
// completion. Because a run is a pure function of (program, spec) and
// the checkpoint carries the complete machine state — including the
// injector's attempt salt, so fault redraws replay — the returned
// Result is byte-for-byte what an uninterrupted Run would have
// produced. Spec and prog must be the run the checkpoint was taken
// from; the caller binds them via Checkpoint.Key (the runner only
// checks the architecture and state geometry). Trace is rejected as in
// checkpointed runs; a flight recorder attaches but its window covers
// only post-resume cycles.
func Resume(ctx context.Context, prog *Program, spec Spec, opts Options, from *ckpt.Checkpoint) (Result, error) {
	if from == nil {
		return newResult(prog), &UsageError{Err: fmt.Errorf("resume without a checkpoint")}
	}
	if from.Arch != string(prog.arch) {
		return newResult(prog), &UsageError{Err: fmt.Errorf("checkpoint is for arch %q, program is %q", from.Arch, prog.arch)}
	}
	return execute(ctx, prog, spec, opts, from)
}

// newResult is a run's result before its machine steps: no cycles and
// a fresh memory image, which backs no words until the run stores. A
// run refused before its machine was built returns it as is, so
// callers may peek any result.
func newResult(prog *Program) Result {
	return Result{Arch: prog.arch, Memory: mem.NewShared(0)}
}

// execute is the shared body of Run and Resume: build the machine,
// optionally restore a checkpoint into it, and drive it to a terminal
// state with periodic context checks and checkpoint snapshots.
func execute(ctx context.Context, prog *Program, spec Spec, opts Options, from *ckpt.Checkpoint) (Result, error) {
	if opts.Trace && (opts.CheckpointEvery > 0 || from != nil) {
		return newResult(prog), &UsageError{Err: fmt.Errorf("tracing is incompatible with checkpoint/resume: pre-checkpoint trace records cannot be reconstructed")}
	}
	if opts.CheckpointEvery > 0 && opts.Checkpoint == nil {
		return newResult(prog), &UsageError{Err: fmt.Errorf("CheckpointEvery set without a Checkpoint sink")}
	}
	injector, err := specInjector(spec)
	if err != nil {
		return newResult(prog), err
	}
	if from != nil && injector != nil {
		// Restore the retry salt: transient fault draws are keyed on
		// (seed, attempt, cycle, FU, addr), so the resumed timeline
		// replays the interrupted one's faults exactly.
		injector.SetAttempt(from.Attempt)
	}

	// Phase spans are all nil-safe: with opts.Span == nil every Child /
	// SetAttr / Finish below is a no-op on a nil receiver.
	buildSpan := opts.Span.Child("build")
	buildSpan.SetAttr("arch", string(prog.arch))
	res := newResult(prog)

	cfg := prog.config(spec, res.Memory, injector)
	var tracer *cycleTracer
	// The flight recorder only needs its own tracer when a full trace is
	// not already being recorded; with Trace on, the flight window is the
	// tail of the trace.
	if opts.Trace || opts.FlightCycles > 0 {
		tracer = &cycleTracer{conv: trace.Copy}
		if prog.arch == ArchVLIW {
			tracer.conv = vliwRecord
		}
		if !opts.Trace {
			tracer.ring = obs.NewRing[trace.Record](opts.FlightCycles)
		}
		cfg.Tracer = tracer
	}
	m, err := core.New(nil, cfg)
	if err != nil {
		return res, &UsageError{Err: err}
	}
	if from != nil {
		saved := from.Ximd
		if prog.arch == ArchVLIW {
			saved = from.Vliw
		}
		if saved == nil {
			return res, &UsageError{Err: fmt.Errorf("checkpoint carries no %s snapshot", prog.arch)}
		}
		rs := buildSpan.Child("restore_checkpoint")
		rs.SetAttrInt("cycle", from.Cycle)
		if err := m.Restore(saved); err != nil {
			return res, &UsageError{Err: err}
		}
		rs.Finish()
	} else {
		hostcfg.Apply(m.Regs(), res.Memory, spec.RegPokes, spec.MemPokes)
	}
	snap := func() (*ckpt.Checkpoint, error) {
		s, err := m.Snapshot()
		if err != nil {
			return nil, err
		}
		c := &ckpt.Checkpoint{Arch: string(prog.arch), Cycle: m.Cycle()}
		if injector != nil {
			c.Attempt = injector.Attempt()
		}
		if prog.arch == ArchVLIW {
			c.Vliw = s
		} else {
			c.Ximd = s
		}
		return c, nil
	}

	buildSpan.Finish()

	// Checkpoint writes get their own spans only when tracing is on;
	// untraced runs keep the sink untouched.
	sink := opts.Checkpoint
	if opts.Span != nil && sink != nil {
		inner := sink
		sink = func(c *ckpt.Checkpoint) {
			cs := opts.Span.Child("checkpoint_write")
			cs.SetAttrInt("cycle", c.Cycle)
			inner(c)
			cs.Finish()
		}
	}

	runSpan := opts.Span.Child("run")
	err = checkpointLoop(ctx, m, snap, opts.CheckpointEvery, sink)
	runSpan.SetAttrInt("cycles", m.Cycle())
	runSpan.Finish()
	res.Cycles = m.Cycle()
	res.Stats = m.Stats()
	switch {
	case tracer == nil:
	case tracer.ring != nil:
		res.Flight = tracer.ring.Snapshot()
	default:
		res.Trace = tracer.records
	}
	if opts.FlightCycles > 0 && len(res.Trace) > 0 {
		tail := res.Trace
		if len(tail) > opts.FlightCycles {
			tail = tail[len(tail)-opts.FlightCycles:]
		}
		res.Flight = append([]trace.Record(nil), tail...)
	}
	return res, err
}

// specInjector builds the fault injector a spec asks for, or nil for an
// idealized run. Failures are usage errors.
func specInjector(spec Spec) (*inject.Injector, error) {
	if spec.Inject == "" {
		return nil, nil
	}
	icfg, err := inject.ParseSpec(spec.Inject, spec.Seed)
	if err != nil {
		return nil, &UsageError{Err: err}
	}
	injector, err := inject.New(icfg)
	if err != nil {
		return nil, &UsageError{Err: err}
	}
	return injector, nil
}

// config is the machine configuration of one run of p.
func (p *Program) config(spec Spec, memory *mem.Shared, injector *inject.Injector) core.Config {
	return core.Config{
		Memory:            memory,
		MaxCycles:         spec.MaxCycles,
		TolerateConflicts: spec.TolerateConflicts,
		Inject:            injector,
		Decoded:           p.dec,
	}
}

// checkpointLoop steps a machine to completion in ctxCheckInterval-cycle
// batches, checking the context between batches. Bulk stepping is what
// lets the fused superop engine engage on untraced runs. With every > 0
// batches are also clamped so the machine lands exactly on every
// multiple of `every`, where a snapshot is taken and handed to the
// sink. Alignment is to absolute cycle numbers, not to the loop's
// starting point, so a resumed run checkpoints at the same boundaries
// the interrupted run did. A snapshot failure (a memory model that
// cannot checkpoint) disables further snapshots for the run rather than
// failing it: losing resumability must not lose the result.
func checkpointLoop(ctx context.Context, m *core.Machine, snap func() (*ckpt.Checkpoint, error), every uint64, sink func(*ckpt.Checkpoint)) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := m.Cycle()
		n := uint64(ctxCheckInterval)
		if every > 0 {
			if toBoundary := every - cur%every; toBoundary < n {
				n = toBoundary
			}
		}
		running, err := m.StepN(n)
		if err != nil {
			return err
		}
		if !running {
			return nil
		}
		if every > 0 {
			if c := m.Cycle(); c > 0 && c%every == 0 {
				chk, err := snap()
				if err != nil {
					every = 0
					continue
				}
				sink(chk)
			}
		}
	}
}

// vliwRecord adapts one lockstep (VLIW) cycle to trace.Record: the
// single PC, all condition codes reported valid (the VLIW machine does
// not track validity), and no SS or partition columns (a VLIW has no
// synchronization signals and always exactly one stream). A whole-word
// stall marks every FU stalled — the single sequencer waits as one.
func vliwRecord(rec *core.CycleRecord) trace.Record {
	valid := make([]bool, len(rec.CC))
	for i := range valid {
		valid[i] = true
	}
	return trace.Record{
		Cycle:   rec.Cycle,
		PC:      append([]isa.Addr(nil), rec.PC...),
		CC:      append([]bool(nil), rec.CC...),
		CCValid: valid,
		Stalled: append([]bool(nil), rec.Stalled...),
	}
}

// cycleTracer converts every cycle record to a trace.Record (conv: the
// architecture's shape) and keeps it: all of them, or, with ring set,
// the flight recorder's last window.
type cycleTracer struct {
	conv    func(*core.CycleRecord) trace.Record
	ring    *obs.Ring[trace.Record]
	records []trace.Record
}

func (t *cycleTracer) Cycle(rec *core.CycleRecord) {
	r := t.conv(rec)
	if t.ring != nil {
		t.ring.Append(r)
		return
	}
	t.records = append(t.records, r)
}
