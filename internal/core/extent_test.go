package core

import (
	"reflect"
	"testing"

	"ximd/internal/isa"
	"ximd/internal/mem"
)

// extentCases are straight-line two-word programs (then halt) that
// touch a default-size memory image past its backed prefix and at its
// bound. Each runs fused, unfused, and on the reference engine: a load
// in [len(Raw()), Size()) reads zero inside the fused run, a store there
// bails to the per-cycle path (which grows the prefix), and an access
// at Size() bails and faults exactly as unfused.
var extentCases = []struct {
	name  string
	words [2][2]isa.DataOp // [word][fu]
	peek  []uint32
	regs  [3]int32 // want r64..r66
	fault bool
}{
	{"load past extent", [2][2]isa.DataOp{
		{load(500000, 64), load(mem.DefaultWords-1, 65)},
		{load(3, 66), isa.Nop},
	}, nil, [3]int32{}, false},
	{"store past extent", [2][2]isa.DataOp{
		{store(7, 2000), load(2000, 65)},
		{load(2000, 64), store(9, 900000)},
	}, []uint32{2000, 900000}, [3]int32{7, 0, 0}, false},
	{"load at size", [2][2]isa.DataOp{
		{store(7, 10), isa.Nop},
		{load(mem.DefaultWords, 64), isa.Nop},
	}, []uint32{10}, [3]int32{}, true},
	{"store at size", [2][2]isa.DataOp{
		{load(4, 64), isa.Nop},
		{isa.Nop, store(1, mem.DefaultWords)},
	}, nil, [3]int32{}, true},
}

func load(addr uint32, dest uint8) isa.DataOp {
	return isa.DataOp{Op: isa.OpLoad, A: isa.I(int32(addr)), B: isa.I(0), Dest: dest}
}

func store(v int32, addr uint32) isa.DataOp {
	return isa.DataOp{Op: isa.OpStore, A: isa.I(v), B: isa.I(int32(addr))}
}

func TestFusedMemoryExtent(t *testing.T) {
	for _, tc := range extentCases {
		t.Run(tc.name, func(t *testing.T) {
			p := &isa.Program{NumFU: 2, Instrs: make([]isa.Instruction, 3)}
			for a, word := range tc.words {
				for fu, op := range word {
					p.Instrs[a][fu] = isa.Parcel{Data: op, Ctrl: isa.Goto(isa.Addr(a + 1))}
				}
			}
			for fu := 0; fu < 2; fu++ {
				p.Instrs[2][fu] = isa.Parcel{Data: isa.Nop, Ctrl: isa.Halt()}
			}
			type outcome struct {
				cycles uint64
				err    string
				stats  Stats
				regs   [3]isa.Word
				peeks  []isa.Word
				backed int
			}
			run := func(engine EngineKind, noFuse bool) outcome {
				memory := mem.NewShared(0)
				m, err := New(p, Config{Memory: memory, Engine: engine, DisableFusion: noFuse, MaxCycles: 100})
				if err != nil {
					t.Fatal(err)
				}
				if engine == EngineFast && !noFuse && m.fuse.runLen[0] != 2 {
					t.Fatalf("program is not one fused run: runLen = %d", m.fuse.runLen[0])
				}
				cycles, err := m.Run()
				o := outcome{cycles: cycles, err: errString(err), stats: m.Stats(), backed: len(memory.Raw())}
				for i := range o.regs {
					o.regs[i] = m.Regs().Peek(uint8(64 + i))
				}
				for _, a := range tc.peek {
					o.peeks = append(o.peeks, memory.Peek(a))
				}
				return o
			}
			fused := run(EngineFast, false)
			for name, other := range map[string]outcome{
				"unfused":   run(EngineFast, true),
				"reference": run(EngineReference, false),
			} {
				if !reflect.DeepEqual(fused, other) {
					t.Fatalf("fused and %s runs differ:\nfused: %+v\n%s: %+v", name, fused, name, other)
				}
			}
			for i, want := range tc.regs {
				if got := fused.regs[i].Int(); got != want {
					t.Fatalf("r%d = %d, want %d", 64+i, got, want)
				}
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
