package vliw

import (
	"fmt"
	"reflect"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// TestVLIWFusedMemoryExtent mirrors the XIMD core's extent test on the
// VLIW fused engine: a load past the memory's backed prefix reads zero
// inside the fused run, a store there bails to the per-cycle path
// (which grows the prefix), and an access at Size() bails and faults
// exactly as unfused.
func TestVLIWFusedMemoryExtent(t *testing.T) {
	load := func(addr uint32, dest uint8) isa.DataOp {
		return isa.DataOp{Op: isa.OpLoad, A: isa.I(int32(addr)), B: isa.I(0), Dest: dest}
	}
	store := func(v int32, addr uint32) isa.DataOp {
		return isa.DataOp{Op: isa.OpStore, A: isa.I(v), B: isa.I(int32(addr))}
	}
	for _, tc := range []struct {
		name  string
		words [2][2]isa.DataOp // [word][fu]
		peek  []uint32
		r64   int32
		fault bool
	}{
		{"load past extent", [2][2]isa.DataOp{
			{load(500000, 64), load(mem.DefaultWords-1, 65)},
			{load(3, 66), isa.Nop},
		}, nil, 0, false},
		{"store past extent", [2][2]isa.DataOp{
			{store(7, 2000), load(2000, 65)},
			{load(2000, 64), store(9, 900000)},
		}, []uint32{2000, 900000}, 7, false},
		{"load at size", [2][2]isa.DataOp{
			{store(7, 10), isa.Nop},
			{load(mem.DefaultWords, 64), isa.Nop},
		}, []uint32{10}, 0, true},
		{"store at size", [2][2]isa.DataOp{
			{load(4, 64), isa.Nop},
			{isa.Nop, store(1, mem.DefaultWords)},
		}, nil, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{NumFU: 2, Instrs: make([]Instruction, 3)}
			for a, word := range tc.words {
				copy(p.Instrs[a].Ops[:], word[:])
				p.Instrs[a].Ctrl = isa.Goto(isa.Addr(a + 1))
			}
			p.Instrs[2].Ctrl = isa.Halt()
			type outcome struct {
				cycles uint64
				err    string
				stats  core.Stats
				regs   [3]isa.Word
				peeks  []isa.Word
				backed int
			}
			run := func(engine core.EngineKind, noFuse bool) outcome {
				memory := mem.NewShared(0)
				m, err := New(p, Config{Memory: memory, Engine: engine, DisableFusion: noFuse, MaxCycles: 100})
				if err != nil {
					t.Fatal(err)
				}
				if d, err := Predecode(p); err != nil || d.FusibleWords() != 2 {
					t.Fatalf("program is not one fused run: %v", err)
				}
				cycles, err := m.Run()
				o := outcome{cycles: cycles, err: fmt.Sprint(err), stats: m.Stats(), backed: len(memory.Raw())}
				for i := range o.regs {
					o.regs[i] = m.Regs().Peek(uint8(64 + i))
				}
				for _, a := range tc.peek {
					o.peeks = append(o.peeks, memory.Peek(a))
				}
				return o
			}
			fused := run(core.EngineFast, false)
			for name, other := range map[string]outcome{
				"unfused":   run(core.EngineFast, true),
				"reference": run(core.EngineReference, false),
			} {
				if !reflect.DeepEqual(fused, other) {
					t.Fatalf("fused and %s runs differ:\nfused: %+v\n%s: %+v", name, fused, name, other)
				}
			}
			if got := fused.regs[0].Int(); got != tc.r64 {
				t.Fatalf("r64 = %d, want %d", got, tc.r64)
			}
			if (fused.err != "<nil>") != tc.fault {
				t.Fatalf("error = %s, want fault %v", fused.err, tc.fault)
			}
			if len(tc.peek) == 0 && fused.backed != 0 {
				t.Fatalf("a run without stores backed %d words", fused.backed)
			}
		})
	}
}
