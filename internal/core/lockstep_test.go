package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ximd/internal/inject"
	"ximd/internal/isa"
)

// Lockstep (VLIW) mode on the shared engine layers: the fast lockstep
// step against the reference parcel interpreter (traces included, and
// under injection), fused against unfused runs, and the fused runtime
// engaging on lockstep tables. internal/vliw holds the VLIW-level nets.

// randomLockstepProgram generates a VLIW-style program: randomXIMDProgram's
// data operations (hazards and the memory probes past the backed prefix
// and past the end of memory included) under one control operation per
// word — gotos, mostly to the next word so runs fuse, halts, and CC
// branches that sometimes spin on their own word.
func randomLockstepProgram(r *rand.Rand) *isa.Program {
	p := randomXIMDProgram(r)
	n := len(p.Instrs)
	for addr := range p.Instrs {
		fwd := func() isa.Addr { return isa.Addr(addr + 1 + r.Intn(n-addr-1)) }
		var ctrl isa.CtrlOp
		switch k := r.Intn(10); {
		case addr == n-1 || k == 0:
			ctrl = isa.Halt()
		case k < 6:
			ctrl = isa.Goto(isa.Addr(addr + 1))
		case k == 6:
			ctrl = isa.Goto(fwd())
		default:
			spin := fwd()
			if r.Intn(6) == 0 {
				spin = isa.Addr(addr)
			}
			cc := uint8(r.Intn(p.NumFU))
			if k == 7 {
				ctrl = isa.IfCC(cc, fwd(), spin)
			} else {
				ctrl = isa.IfNotCC(cc, spin, fwd())
			}
		}
		for fu := 0; fu < p.NumFU; fu++ {
			pc := &p.Instrs[addr][fu]
			if pc.Trap {
				*pc = isa.Parcel{Data: isa.Nop}
			}
			pc.Ctrl, pc.Sync = ctrl, isa.Busy
		}
	}
	return p
}

// assertLockstepAgrees runs prog in lockstep mode fused, unfused, and on
// the reference engine, then traced on both engines under inj (nil for
// none), and requires identical outcomes.
func assertLockstepAgrees(t *testing.T, tag string, prog *isa.Program, cfg Config, inj *inject.Injector) {
	t.Helper()
	d, err := PredecodeLockstep(prog)
	if err != nil {
		t.Fatalf("%s: PredecodeLockstep: %v", tag, err)
	}
	cfg.Decoded = d
	assertFusionAgrees(t, tag, prog, cfg)
	cfg.Inject = inj
	assertEnginesAgree(t, tag+" (traced)", prog, cfg)
}

func TestLockstepDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(314))
	for iter := 0; iter < 400; iter++ {
		prog := randomLockstepProgram(r)
		var inj *inject.Injector
		if iter%2 == 1 {
			inj = inject.MustNew(randomInjectConfig(r))
		}
		cfg := Config{MaxCycles: 300, TolerateConflicts: r.Intn(2) == 0}
		assertLockstepAgrees(t, fmt.Sprintf("iter %d (inject %v)", iter, inj), prog, cfg, inj)
	}
}

// FuzzLockstepEquivalence is the open-ended lockstep net: the fuzzer
// picks the generator seed, the config bits, and whether a seeded
// injection campaign runs against the reference oracle.
func FuzzLockstepEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, flags uint8) {
		r := rand.New(rand.NewSource(seed))
		prog := randomLockstepProgram(r)
		if err := prog.Validate(); err != nil {
			t.Skip()
		}
		var inj *inject.Injector
		if flags&2 != 0 {
			inj = inject.MustNew(randomInjectConfig(r))
		}
		cfg := Config{MaxCycles: 300, TolerateConflicts: flags&1 != 0}
		assertLockstepAgrees(t, fmt.Sprintf("seed %d flags %#x", seed, flags), prog, cfg, inj)
	})
}

// TestLockstepRejectsNonVLIWPrograms: lockstep needs one control
// operation per word, in every parcel, and no synchronization signals.
func TestLockstepRejectsNonVLIWPrograms(t *testing.T) {
	b := isa.NewBuilder(2)
	b.Set(0, 0, isa.Parcel{Data: isa.Nop, Ctrl: isa.Goto(1)})
	b.Set(0, 1, isa.Parcel{Data: isa.Nop, Ctrl: isa.Goto(0)})
	b.Set(1, 0, isa.HaltParcel)
	b.Set(1, 1, isa.HaltParcel)
	if _, err := PredecodeLockstep(b.MustBuild()); err == nil {
		t.Fatal("accepted divergent control")
	}
	b = isa.NewBuilder(1)
	b.Set(0, 0, isa.Parcel{Data: isa.Nop, Ctrl: isa.IfAllSS(1, 0)})
	b.Set(1, 0, isa.HaltParcel)
	if _, err := PredecodeLockstep(b.MustBuild()); err == nil {
		t.Fatal("accepted a synchronization-signal condition")
	}
}

// TestLockstepFusionEngages: a straight-line lockstep program takes the
// fused path from its entry, shared with the XIMD machine.
func TestLockstepFusionEngages(t *testing.T) {
	const n = 6
	p := &isa.Program{NumFU: 4, Instrs: make([]isa.Instruction, n)}
	for addr := 0; addr < n; addr++ {
		ctrl := isa.Goto(isa.Addr(addr + 1))
		if addr == n-1 {
			ctrl = isa.Halt()
		}
		for fu := 0; fu < 4; fu++ {
			p.Instrs[addr][fu] = isa.Parcel{Data: isa.DataOp{Op: isa.OpIAdd, A: isa.R(uint8(fu)), B: isa.I(1), Dest: uint8(fu)}, Ctrl: ctrl}
		}
	}
	d, err := PredecodeLockstep(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(nil, Config{Decoded: d})
	if err != nil {
		t.Fatal(err)
	}
	if !m.lockstep || !m.fuseOK {
		t.Fatalf("lockstep = %v, fuseOK = %v; want a fusing lockstep machine", m.lockstep, m.fuseOK)
	}
	if k := m.fusibleAt(); k != n-1 {
		t.Fatalf("fusibleAt = %d, want %d", k, n-1)
	}
	if _, err := m.StepN(n - 1); err != nil || m.Cycle() != n-1 || m.PC(0) != n-1 {
		t.Fatalf("StepN(%d): cycle %d, pc %d, err %v", n-1, m.Cycle(), m.PC(0), err)
	}
	s := m.Stats()
	if s.Cycles != n-1 || s.StreamHistogram[1] != n-1 {
		t.Fatalf("fused run stats: %d cycles, histogram %v", s.Cycles, s.StreamHistogram)
	}
}
