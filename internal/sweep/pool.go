// Machine pooling. A sweep retires thousands of short machine runs, and
// building each machine from scratch allocates a register file plus a
// dozen per-FU state slices that are dead the moment the task's Outcome
// is extracted. The pools below recycle machines through Machine.Reset
// instead: pools are keyed by config shape (the functional-unit count),
// so a recycled machine's per-FU slices are already exactly the right
// size and a rebind allocates nothing in steady state.
//
// The contract with Reset keeps this safe: Reset rebinds every piece of
// architectural and host state (TestResetMatchesNew holds it to the New
// contract), and a machine whose Reset or run failed is simply not
// returned to the pool — errors discard, never recycle. Memory is never
// pooled: each task's environment owns its memory image, which carries
// poked input data and memory-mapped devices.
package sweep

import (
	"sync"

	"ximd/internal/core"
	"ximd/internal/isa"
)

// pools holds retired machines, indexed by the functional-unit count
// they were last bound to (the config shape). XIMD and lockstep (VLIW)
// machines share them: the mode comes with the decoded table at Reset.
var pools [isa.NumFU + 1]sync.Pool

// acquire returns a machine bound to cfg (whose Decoded table carries
// the program), recycling a pooled machine of the same shape when one
// is available.
func acquire(cfg core.Config) (*core.Machine, error) {
	if v := pools[cfg.Decoded.Program().NumFU].Get(); v != nil {
		m := v.(*core.Machine)
		if err := m.Reset(nil, cfg); err != nil {
			return nil, err // half-bound machine: discard, never pool
		}
		return m, nil
	}
	return core.New(nil, cfg)
}

// release returns a successfully-run machine to its shape's pool.
// Callers must not touch the machine (or anything borrowed from it,
// like Regs) afterwards.
func release(m *core.Machine) { pools[m.NumFU()].Put(m) }
