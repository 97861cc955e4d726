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
