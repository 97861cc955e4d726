// Package workloads provides the example programs of the paper — TPROC
// (Example 1), Livermore Loop 12, MINMAX (Example 2), BITCOUNT1
// (Example 3), and the Figure 12 dual-process I/O program — plus
// additional kernels used for the Section 4.1 XIMD-versus-VLIW
// performance comparison. Each workload is provided in the execution
// styles the paper discusses (XIMD multi-stream, VLIW single-stream,
// scalar single-FU) together with host setup and a result checker, so the
// same workload drives tests, traces, and benchmarks.
package workloads

import (
	"fmt"

	"ximd/internal/asm"
	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
	"ximd/internal/vliw"
)

// Env is one fresh execution environment for a workload instance: the
// memory image (with any memory-mapped devices attached and input data
// poked) and a checker that validates the results after the run.
type Env struct {
	Mem   mem.Memory
	Check func(regs *regfile.File) error
}

// Instance is one runnable configuration of a workload. XIMD and VLIW
// hold the two architecture variants; either may be nil when the
// workload only exists in one style.
type Instance struct {
	Name string
	// XIMD is the multi-stream program for the XIMD machine.
	XIMD *isa.Program
	// VLIW is the single-stream baseline for the VLIW machine (vsim).
	VLIW *vliw.Program
	// Regs is host register initialization applied before the run.
	Regs map[uint8]isa.Word
	// NewEnv builds a fresh environment (memory + checker) per run.
	NewEnv func() *Env
	// Comments annotate trace cycles (for Figure 10 style output).
	Comments map[uint64]string
}

// RunXIMD executes the instance's XIMD program to completion, verifies
// the result, and returns the machine for inspection.
func RunXIMD(inst *Instance, tracer core.Tracer) (*core.Machine, error) {
	if inst.XIMD == nil {
		return nil, fmt.Errorf("workload %s has no XIMD variant", inst.Name)
	}
	decoded, err := core.Predecode(inst.XIMD)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inst.Name, err)
	}
	return Run(inst, core.Config{Decoded: decoded, Tracer: tracer})
}

// RunVLIW is RunXIMD for the instance's VLIW program (a lockstep
// machine, whose trace records carry the single PC).
func RunVLIW(inst *Instance, tracer core.Tracer) (*core.Machine, error) {
	if inst.VLIW == nil {
		return nil, fmt.Errorf("workload %s has no VLIW variant", inst.Name)
	}
	decoded, err := vliw.Predecode(inst.VLIW)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inst.Name, err)
	}
	return Run(inst, core.Config{Decoded: decoded, Tracer: tracer})
}

// Run builds a machine under cfg, whose Decoded table carries the
// program (either variant), on a fresh environment of the instance,
// applies the instance's register pokes, runs it to completion, and
// checks the result. cfg.Memory is replaced by the environment's.
func Run(inst *Instance, cfg core.Config) (*core.Machine, error) {
	env := inst.NewEnv()
	cfg.Memory = env.Mem
	m, err := core.New(nil, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inst.Name, err)
	}
	for r, v := range inst.Regs {
		m.Regs().Poke(r, v)
	}
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", inst.Name, err)
	}
	if env.Check != nil {
		if err := env.Check(m.Regs()); err != nil {
			return nil, fmt.Errorf("%s: result check: %w", inst.Name, err)
		}
	}
	return m, nil
}

// mustAssemble assembles static workload source text, panicking on
// failure: the sources are compiled-in constants, so failure is a
// programming bug.
func mustAssemble(name, src string) *isa.Program {
	prog, err := asm.Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("workloads: %s does not assemble: %v", name, err))
	}
	return prog
}

// mustVLIW converts a VLIW-conversion failure into a panic.
func mustVLIW(name string, p *isa.Program) *vliw.Program {
	v, err := vliw.FromXIMD(p)
	if err != nil {
		panic(fmt.Sprintf("workloads: %s is not VLIW-convertible: %v", name, err))
	}
	return v
}

// sharedMem builds a default-size shared memory and pokes int32 data at
// the given base.
func sharedMem(base uint32, data []int32) *mem.Shared {
	m := mem.NewShared(0)
	m.PokeInts(base, data...)
	return m
}

// expectInts compares a memory range against expected values.
func expectInts(m *mem.Shared, base uint32, want []int32) error {
	got := m.PeekInts(base, len(want))
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("M(%d) = %d, want %d (full: got %v want %v)",
				base+uint32(i), got[i], want[i], got, want)
		}
	}
	return nil
}
