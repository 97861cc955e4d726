package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Snapshot/Restore must compose with the fused superop engine: a
// checkpoint taken between StepN calls on a fusing machine, restored
// onto a fresh machine, must replay to exactly the state the
// uninterrupted run reaches — for the fast engine with fusion on and
// off and for the reference engine alike. This is the property the
// runner's periodic checkpointing (and crash resume in ximdd) stands
// on.

// stepNTo drives m in odd-sized StepN batches (so checkpoint-style
// clamping cuts across fused superop runs) until it stops or reaches at
// least the target cycle.
func stepNTo(t *testing.T, tag string, m *Machine, target uint64) bool {
	t.Helper()
	running := true
	for running && m.Cycle() < target {
		n := uint64(7)
		if left := target - m.Cycle(); left < n {
			n = left
		}
		running, _ = m.StepN(n)
	}
	return running
}

// runToEnd drives m until it stops or reaches the cycle cap. Random
// programs may spin forever; capping both machines of a comparison at
// the same absolute cycle keeps their terminal states comparable.
func runToEnd(t *testing.T, tag string, m *Machine) {
	t.Helper()
	const cap = 5000
	running := true
	for running && m.Cycle() < cap {
		n := uint64(7)
		if left := uint64(cap) - m.Cycle(); left < n {
			n = left
		}
		running, _ = m.StepN(n)
	}
}

// interruptedRun executes prog with a snapshot taken mid-run: the
// original machine continues to completion, and a second, freshly
// constructed machine restores the snapshot and finishes from there.
// Both terminal states are returned for comparison.
func interruptedRun(t *testing.T, tag string, prog *isa.Program, engine EngineKind, disableFusion bool, snapAt uint64) (
	contM *Machine, contMem *mem.Shared, restM *Machine, restMem *mem.Shared) {
	t.Helper()
	build := func() (*Machine, *mem.Shared) {
		memory := mem.NewShared(diffMemWords)
		for i := uint32(0); i < diffMemWords; i++ {
			memory.Poke(i, isa.WordFromInt(int32(i)*3-700))
		}
		cfg := Config{Engine: engine, Memory: memory, DisableFusion: disableFusion, TolerateConflicts: true}
		m, err := New(prog, cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", tag, err)
		}
		for i := uint8(0); i < 24; i++ {
			m.Regs().Poke(i, isa.WordFromInt(int32(i)*7-40))
		}
		return m, memory
	}

	contM, contMem = build()
	stepNTo(t, tag, contM, snapAt)
	snap, err := contM.Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot at cycle %d: %v", tag, contM.Cycle(), err)
	}
	runToEnd(t, tag, contM)

	// The restored machine starts from a default build; Restore replaces
	// registers and memory wholesale, so the initial pokes are
	// irrelevant — which is exactly what crash resume relies on.
	restM, restMem = build()
	if err := restM.Restore(snap); err != nil {
		t.Fatalf("%s: restore: %v", tag, err)
	}
	runToEnd(t, tag, restM)
	return contM, contMem, restM, restMem
}

// TestSnapshotRestoreAcrossFusion holds the PR-interaction property:
// for random fusibility-biased programs, a mid-run checkpoint restored
// onto a fresh machine finishes byte-identically to the uninterrupted
// run, under fused fast, unfused fast, and reference execution — and
// the three restored outcomes agree with each other.
func TestSnapshotRestoreAcrossFusion(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	configs := []struct {
		name   string
		engine EngineKind
		noFuse bool
	}{
		{"fast+fused", EngineFast, false},
		{"fast+nofuse", EngineFast, true},
		{"reference", EngineReference, false},
	}
	for i := 0; i < 40; i++ {
		prog := randomFusibleXIMDProgram(r)
		snapAt := uint64(1 + r.Intn(60))
		var (
			ms   []*Machine
			mems []*mem.Shared
		)
		for _, c := range configs {
			tag := fmt.Sprintf("prog %d (%s, snap@%d)", i, c.name, snapAt)
			contM, contMem, restM, restMem := interruptedRun(t, tag, prog, c.engine, c.noFuse, snapAt)
			assertMachinesAgree(t, tag, "continued", "restored", prog,
				contM, contMem, contM.Cycle(), contM.Err(),
				restM, restMem, restM.Cycle(), restM.Err())
			ms = append(ms, restM)
			mems = append(mems, restMem)
		}
		for j := 1; j < len(configs); j++ {
			tag := fmt.Sprintf("prog %d (restored %s vs %s)", i, configs[0].name, configs[j].name)
			assertMachinesAgree(t, tag, configs[0].name, configs[j].name, prog,
				ms[0], mems[0], ms[0].Cycle(), ms[0].Err(),
				ms[j], mems[j], ms[j].Cycle(), ms[j].Err())
		}
	}
}
