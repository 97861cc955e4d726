package vliw

import (
	"fmt"
	"math/rand"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// The VLIW face of the fusion × checkpoint property: a snapshot taken
// between StepN calls on a fusing machine, restored onto a fresh one,
// finishes identically to the uninterrupted run, across fused fast,
// unfused fast, and reference execution. See the core package's
// checkpoint_fusion_test.go for the XIMD counterpart.

func vliwStepTo(m *Machine, target uint64) {
	running := true
	for running && m.Cycle() < target {
		n := uint64(7)
		if left := target - m.Cycle(); left < n {
			n = left
		}
		running, _ = m.StepN(n)
	}
}

func vliwRunToEnd(m *Machine) {
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

func TestVLIWSnapshotRestoreAcrossFusion(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	configs := []struct {
		name   string
		engine core.EngineKind
		noFuse bool
	}{
		{"fast+fused", core.EngineFast, false},
		{"fast+nofuse", core.EngineFast, true},
		{"reference", core.EngineReference, false},
	}
	for i := 0; i < 40; i++ {
		prog := randomFusibleVLIWProgram(r)
		snapAt := uint64(1 + r.Intn(60))
		var (
			ms   []*Machine
			mems []*mem.Shared
		)
		for _, c := range configs {
			tag := fmt.Sprintf("prog %d (%s, snap@%d)", i, c.name, snapAt)
			build := func() (*Machine, *mem.Shared) {
				memory := mem.NewShared(1024)
				for a := uint32(0); a < 1024; a++ {
					memory.Poke(a, isa.WordFromInt(int32(a)*5-900))
				}
				m, err := New(prog, Config{Engine: c.engine, Memory: memory, DisableFusion: c.noFuse})
				if err != nil {
					t.Fatalf("%s: New: %v", tag, err)
				}
				for reg := uint8(0); reg < 12; reg++ {
					m.Regs().Poke(reg, isa.WordFromInt(int32(reg)*11-60))
				}
				return m, memory
			}

			contM, contMem := build()
			vliwStepTo(contM, snapAt)
			snap, err := contM.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot at cycle %d: %v", tag, contM.Cycle(), err)
			}
			vliwRunToEnd(contM)

			restM, restMem := build()
			if err := restM.Restore(snap); err != nil {
				t.Fatalf("%s: restore: %v", tag, err)
			}
			vliwRunToEnd(restM)

			assertVLIWAgree(t, tag, "continued", "restored",
				contM, contMem, contM.Cycle(), contM.Err(),
				restM, restMem, restM.Cycle(), restM.Err())
			ms = append(ms, restM)
			mems = append(mems, restMem)
		}
		for j := 1; j < len(configs); j++ {
			tag := fmt.Sprintf("prog %d (restored %s vs %s)", i, configs[0].name, configs[j].name)
			assertVLIWAgree(t, tag, configs[0].name, configs[j].name,
				ms[0], mems[0], ms[0].Cycle(), ms[0].Err(),
				ms[j], mems[j], ms[j].Cycle(), ms[j].Err())
		}
	}
}

// TestVLIWResetAfterRestoreLeavesNoResidue mirrors the core pooling
// guard: Restore followed by Reset must leave no checkpoint state
// behind.
func TestVLIWResetAfterRestoreLeavesNoResidue(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for i := 0; i < 20; i++ {
		progA := randomFusibleVLIWProgram(r)
		progB := randomFusibleVLIWProgram(r)

		build := func(p *Program) (*Machine, *mem.Shared) {
			memory := mem.NewShared(1024)
			for a := uint32(0); a < 1024; a++ {
				memory.Poke(a, isa.WordFromInt(int32(a)*5-900))
			}
			m, err := New(p, Config{Engine: core.EngineFast, Memory: memory})
			if err != nil {
				t.Fatalf("prog %d: New: %v", i, err)
			}
			for reg := uint8(0); reg < 12; reg++ {
				m.Regs().Poke(reg, isa.WordFromInt(int32(reg)*11-60))
			}
			return m, memory
		}

		dirty, _ := build(progA)
		vliwStepTo(dirty, 20)
		snap, err := dirty.Snapshot()
		if err != nil {
			t.Fatalf("prog %d: snapshot: %v", i, err)
		}
		vliwRunToEnd(dirty)
		if err := dirty.Restore(snap); err != nil {
			t.Fatalf("prog %d: restore: %v", i, err)
		}

		memB := mem.NewShared(1024)
		for a := uint32(0); a < 1024; a++ {
			memB.Poke(a, isa.WordFromInt(int32(a)*5-900))
		}
		if err := dirty.Reset(nil, Config{Engine: core.EngineFast, Memory: memB, Decoded: mustPredecode(t, progB)}); err != nil {
			t.Fatalf("prog %d: reset: %v", i, err)
		}
		for reg := uint8(0); reg < 12; reg++ {
			dirty.Regs().Poke(reg, isa.WordFromInt(int32(reg)*11-60))
		}
		vliwRunToEnd(dirty)

		fresh, freshMem := build(progB)
		vliwRunToEnd(fresh)

		tag := fmt.Sprintf("prog %d (reset after restore)", i)
		assertVLIWAgree(t, tag, "reused", "fresh",
			dirty, memB, dirty.Cycle(), dirty.Err(),
			fresh, freshMem, fresh.Cycle(), fresh.Err())
	}
}
