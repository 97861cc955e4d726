// Package ximd is the public API of the XIMD reproduction: a
// variable-instruction-stream processor simulator suite implementing
// Wolfe & Shen, "A Variable Instruction Stream Extension to the VLIW
// Architecture" (ASPLOS 1991).
//
// The package wraps the building blocks — the XIMD-1 machine model, the
// companion VLIW baseline, the assembler, the minic compiler, trace
// formatting, and the paper's workloads — behind a small surface:
//
//	prog, err := ximd.Assemble(src)          // XIMD assembly text
//	m, err := ximd.NewMachine(prog, ximd.Config{})
//	cycles, err := m.Run()
//
//	c, err := ximd.Compile(minicSrc, ximd.CompileOptions{Width: 8})
//	m, err := ximd.NewMachine(c.Prog, ximd.Config{})
//
// See the examples directory for complete programs and DESIGN.md for the
// system inventory.
package ximd

import (
	"ximd/internal/asm"
	"ximd/internal/compiler"
	"ximd/internal/compiler/tile"
	"ximd/internal/core"
	"ximd/internal/device"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/trace"
	"ximd/internal/vliw"
	"ximd/internal/workloads"
)

// Machine model types.
type (
	// Program is an assembled XIMD program image.
	Program = isa.Program
	// Machine is an XIMD-1 processor instance.
	Machine = core.Machine
	// Config parameterizes a machine (memory model, tracing, limits).
	Config = core.Config
	// Partition is the SSET partition notation of Section 2.4.
	Partition = core.Partition
	// Stats summarizes an execution (cycles, utilization, stream counts).
	Stats = core.Stats
	// CycleRecord is one traced machine cycle.
	CycleRecord = core.CycleRecord
	// Word is the 32-bit machine word.
	Word = isa.Word
	// Addr is an instruction-memory address.
	Addr = isa.Addr
	// EngineKind selects a simulator execution engine (Config.Engine).
	EngineKind = core.EngineKind
)

// Execution engines selectable via Config.Engine. The pre-decoded fast
// engine is the default; the reference interpreter is retained for
// differential testing and as executable documentation of the
// architecture's semantics.
const (
	// EngineFast executes from a pre-decoded micro-op table.
	EngineFast = core.EngineFast
	// EngineReference executes by interpreting parcels directly.
	EngineReference = core.EngineReference
)

// VLIW baseline types (the paper's vsim).
type (
	// VLIWProgram is a single-stream VLIW program.
	VLIWProgram = vliw.Program
	// VLIWMachine is the VLIW baseline processor: the XIMD machine in
	// lockstep mode, one sequencer driving every FU.
	VLIWMachine = vliw.Machine
	// VLIWConfig parameterizes the VLIW machine (the XIMD Config).
	VLIWConfig = vliw.Config
)

// Memory and device models.
type (
	// SharedMemory is the idealized shared memory of Section 2.3.
	SharedMemory = mem.Shared
	// InPort is a polled input port with deterministic readiness
	// schedules (Figure 12 substrate).
	InPort = device.InPort
	// OutPort records output-port writes.
	OutPort = device.OutPort
)

// Tracing.
type (
	// TraceRecorder captures every executed cycle; pass as Config.Tracer.
	TraceRecorder = trace.Recorder
	// TraceOptions controls address-trace formatting.
	TraceOptions = trace.Options
)

// Compiler.
type (
	// Compiled is the result of compiling minic source.
	Compiled = compiler.Compiled
	// CompileOptions selects target width and unrolling.
	CompileOptions = compiler.Options
)

// Workloads.
type (
	// Workload is one paper workload instance with its environment and
	// result checker.
	Workload = workloads.Instance
)

// NewMachine creates an XIMD-1 machine loaded with prog.
func NewMachine(prog *Program, cfg Config) (*Machine, error) {
	return core.New(prog, cfg)
}

// NewVLIWMachine creates a VLIW baseline machine loaded with prog.
func NewVLIWMachine(prog *VLIWProgram, cfg VLIWConfig) (*VLIWMachine, error) {
	return vliw.New(prog, cfg)
}

// Assemble assembles XIMD assembly text (see internal/asm for the
// language reference).
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders a program as assembler source that Assemble
// accepts.
func Disassemble(prog *Program) string { return asm.Format(prog) }

// NewSharedMemory creates an idealized shared memory of size words
// (0 selects the default 1M words).
func NewSharedMemory(size uint32) *SharedMemory { return mem.NewShared(size) }

// ToVLIW converts a VLIW-style XIMD program (identical control in every
// parcel) to a native VLIW program.
func ToVLIW(prog *Program) (*VLIWProgram, error) { return vliw.FromXIMD(prog) }

// FromVLIW converts a VLIW program to an XIMD program by duplicating the
// control operation into every parcel (Section 3.1).
func FromVLIW(prog *VLIWProgram) *Program { return prog.ToXIMD() }

// Compile compiles minic source to an XIMD program.
func Compile(src string, opts CompileOptions) (*Compiled, error) {
	return compiler.Compile(src, opts)
}

// FormatAddressTrace renders captured cycles as the paper's Figure 10
// address-trace table.
func FormatAddressTrace(rec *TraceRecorder, opts TraceOptions) string {
	return trace.FormatAddressTrace(rec.Records, opts)
}

// StreamTimeline returns the concurrent-stream count per traced cycle.
func StreamTimeline(rec *TraceRecorder) []int { return trace.StreamTimeline(rec.Records) }

// Tile-based compilation (Figure 13).
type (
	// TileCandidate is one compiled variant of a thread (width × length).
	TileCandidate = tile.Candidate
	// TileThread is one thread with its compiled candidates.
	TileThread = tile.Thread
	// TilePacking is a placement of thread tiles into instruction memory.
	TilePacking = tile.Packing
)

// TileCandidates compiles a par-free minic thread at each width,
// producing its Figure 13 tiles.
func TileCandidates(src string, widths []int) ([]TileCandidate, error) {
	return compiler.TileCandidates(src, widths)
}

// Tile packing algorithms (Figure 13).
var (
	// PackShelfFFD is the shelf first-fit-decreasing heuristic.
	PackShelfFFD = tile.PackShelfFFD
	// PackSkyline is the skyline best-fit heuristic.
	PackSkyline = tile.PackSkyline
	// PackExhaustive searches all candidate combinations (small thread
	// counts).
	PackExhaustive = tile.PackExhaustive
)

// Paper workload constructors (see internal/workloads for details).
var (
	// TPROC is Example 1: the percolation-scheduled scalar procedure.
	TPROC = workloads.TPROC
	// MinMax is Example 2: the implicit-barrier fork/join search.
	MinMax = workloads.MinMax
	// Bitcount is Example 3: the explicit ALL-SS barrier program.
	Bitcount = workloads.Bitcount
	// LL12 is Livermore Loop 12, software-pipelined.
	LL12 = workloads.LL12
	// BitcountPadded is the equal-path-length (Example 2 style) ablation
	// of Bitcount.
	BitcountPadded = workloads.BitcountPadded
	// PartialBarrier is the Section 3.3 generalization: two concurrent
	// barrier groups on masked ALL-SS conditions.
	PartialBarrier = workloads.PartialBarrier
	// Saxpy is the floating-point kernel y = a*x + y.
	Saxpy = workloads.Saxpy
	// LL1, LL3, LL7 are compiler-generated Livermore-style kernels.
	LL1 = workloads.LL1
	LL3 = workloads.LL3
	LL7 = workloads.LL7
	// RunWorkload executes a workload's XIMD variant and checks results.
	RunWorkload = workloads.RunXIMD
	// RunWorkloadVLIW executes a workload's VLIW variant.
	RunWorkloadVLIW = workloads.RunVLIW
)
