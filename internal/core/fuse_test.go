package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ximd/internal/inject"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Differential testing of the fused superop engine. A fused run must be
// byte-identical to an unfused (per-cycle) run of the same program and
// config: cycle count, error text, every statistics counter, register
// file port accounting, memory counters, the SSET partition, all 256
// registers, and memory content. Tracing is exercised separately: a
// machine with a tracer attached never fuses (by design — the per-cycle
// path is the single source of truth for cycle records), so trace
// equivalence reduces to the fast-vs-reference net in
// differential_test.go. These tests run WITHOUT a tracer so fusion
// actually engages.

// randomFusibleXIMDProgram biases randomXIMDProgram's output toward
// fusible code: a fraction of whole instruction words are rewritten to
// all-FU goto-next control (keeping their random — including hazardous
// — data operations), producing long straight-line runs with faults,
// store conflicts, duplicate destinations, and sync signals buried in
// their middles.
func randomFusibleXIMDProgram(r *rand.Rand) *isa.Program {
	p := randomXIMDProgram(r)
	n := len(p.Instrs)
	for addr := 0; addr < n-1; addr++ {
		if r.Intn(10) < 6 {
			for fu := 0; fu < p.NumFU; fu++ {
				if p.Instrs[addr][fu].Trap && r.Intn(4) != 0 {
					// Most rewritten words become fully occupied (fusible);
					// some keep a trap hole, which must stay unfused.
					p.Instrs[addr][fu] = isa.Parcel{Data: isa.Nop}
				}
				if !p.Instrs[addr][fu].Trap {
					p.Instrs[addr][fu].Ctrl = isa.Goto(isa.Addr(addr + 1))
				}
			}
		}
	}
	return p
}

// runFusion executes prog on the fast engine with fusion on or off,
// with the same deterministic register/memory image the engine
// differential tests use, and no tracer (so fusion can engage).
func runFusion(t *testing.T, tag string, prog *isa.Program, cfg Config, engine EngineKind, disableFusion bool) (*Machine, *mem.Shared, uint64, error) {
	t.Helper()
	memory := mem.NewShared(diffMemWords)
	for i := uint32(0); i < diffBackedWords; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*3-700))
	}
	cfg.Engine = engine
	cfg.Memory = memory
	cfg.DisableFusion = disableFusion
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", tag, err)
	}
	for i := uint8(0); i < 24; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*7-40))
	}
	cycles, runErr := m.Run()
	return m, memory, cycles, runErr
}

// assertMachinesAgree compares everything observable about two finished
// runs of the same program.
func assertMachinesAgree(t *testing.T, tag, aName, bName string, prog *isa.Program,
	am *Machine, amem *mem.Shared, acyc uint64, aerr error,
	bm *Machine, bmem *mem.Shared, bcyc uint64, berr error) {
	t.Helper()
	if acyc != bcyc {
		t.Fatalf("%s: cycle divergence: %s %d, %s %d (%v vs %v)", tag, aName, acyc, bName, bcyc, aerr, berr)
	}
	if errString(aerr) != errString(berr) {
		t.Fatalf("%s: error divergence:\n%s: %s\n%s: %s", tag, aName, errString(aerr), bName, errString(berr))
	}
	if errString(am.Err()) != errString(bm.Err()) {
		t.Fatalf("%s: latched error divergence:\n%s: %s\n%s: %s",
			tag, aName, errString(am.Err()), bName, errString(bm.Err()))
	}
	if am.Done() != bm.Done() {
		t.Fatalf("%s: done divergence: %s %v, %s %v", tag, aName, am.Done(), bName, bm.Done())
	}
	if !reflect.DeepEqual(am.Stats(), bm.Stats()) {
		t.Fatalf("%s: stats divergence:\n%s: %+v\n%s: %+v", tag, aName, am.Stats(), bName, bm.Stats())
	}
	if am.Regs().Stats() != bm.Regs().Stats() {
		t.Fatalf("%s: regfile stats divergence:\n%s: %+v\n%s: %+v",
			tag, aName, am.Regs().Stats(), bName, bm.Regs().Stats())
	}
	if !am.Partition().Equal(bm.Partition()) {
		t.Fatalf("%s: partition divergence: %s %v, %s %v", tag, aName, am.Partition(), bName, bm.Partition())
	}
	for fu := 0; fu < prog.NumFU; fu++ {
		if am.PC(fu) != bm.PC(fu) {
			t.Fatalf("%s: FU%d PC divergence: %s %d, %s %d", tag, fu, aName, am.PC(fu), bName, bm.PC(fu))
		}
		if am.CC(fu) != bm.CC(fu) {
			t.Fatalf("%s: FU%d CC divergence", tag, fu)
		}
	}
	for reg := 0; reg < isa.NumRegs; reg++ {
		if am.Regs().Peek(uint8(reg)) != bm.Regs().Peek(uint8(reg)) {
			t.Fatalf("%s: r%d divergence: %s %d, %s %d",
				tag, reg, aName, am.Regs().Peek(uint8(reg)), bName, bm.Regs().Peek(uint8(reg)))
		}
	}
	al, as := amem.Counters()
	bl, bs := bmem.Counters()
	if al != bl || as != bs {
		t.Fatalf("%s: memory counter divergence: %s %d/%d, %s %d/%d", tag, aName, al, as, bName, bl, bs)
	}
	for a := uint32(0); a < diffMemWords; a++ {
		if amem.Peek(a) != bmem.Peek(a) {
			t.Fatalf("%s: M(%d) divergence: %s %d, %s %d", tag, a, aName, amem.Peek(a), bName, bmem.Peek(a))
		}
	}
}

// assertFusionAgrees holds a fused run, an unfused fast run, and a
// reference run of the same program to identical outcomes.
func assertFusionAgrees(t *testing.T, tag string, prog *isa.Program, cfg Config) {
	t.Helper()
	fm, fmem, fcyc, ferr := runFusion(t, tag, prog, cfg, EngineFast, false)
	um, umem, ucyc, uerr := runFusion(t, tag, prog, cfg, EngineFast, true)
	rm, rmem, rcyc, rerr := runFusion(t, tag, prog, cfg, EngineReference, false)
	assertMachinesAgree(t, tag, "fused", "unfused", prog, fm, fmem, fcyc, ferr, um, umem, ucyc, uerr)
	assertMachinesAgree(t, tag, "fused", "reference", prog, fm, fmem, fcyc, ferr, rm, rmem, rcyc, rerr)
}

// TestDifferentialFusedVsUnfused is the fused-engine half of the
// random-program campaign: 320 programs (two-thirds biased toward long
// fusible runs with hazards buried inside) across random config
// combinations, each run fused, unfused, and on the reference engine.
func TestDifferentialFusedVsUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(7991))
	for iter := 0; iter < 320; iter++ {
		var prog *isa.Program
		if iter%3 == 0 {
			prog = randomXIMDProgram(r)
		} else {
			prog = randomFusibleXIMDProgram(r)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v", iter, err)
		}
		cfg := Config{
			MaxCycles:         300,
			TolerateConflicts: r.Intn(2) == 0,
			DetectLivelock:    r.Intn(2) == 0,
			RegisteredSS:      r.Intn(2) == 0,
		}
		assertFusionAgrees(t, fmt.Sprintf("iter %d (cfg %+v)", iter, cfg), prog, cfg)
	}
}

// TestDifferentialFusedUnderInjection covers the fault-injection
// campaigns: an enabled injector disables fusion at New (injection is
// cycle-granular architectural state), so these runs prove the fallback
// is seamless — Run still goes through StepN and must match the
// per-cycle engines exactly.
func TestDifferentialFusedUnderInjection(t *testing.T) {
	r := rand.New(rand.NewSource(4411))
	for iter := 0; iter < 40; iter++ {
		prog := randomFusibleXIMDProgram(r)
		if err := prog.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		icfg := randomInjectConfig(r)
		cfg := Config{
			MaxCycles:         300,
			TolerateConflicts: r.Intn(2) == 0,
			Inject:            inject.MustNew(icfg),
		}
		fm, fmem, fcyc, ferr := runFusion(t, "inj", prog, cfg, EngineFast, false)
		cfg.Inject = inject.MustNew(icfg)
		um, umem, ucyc, uerr := runFusion(t, "inj", prog, cfg, EngineFast, true)
		assertMachinesAgree(t, fmt.Sprintf("iter %d", iter), "fused", "unfused", prog,
			fm, fmem, fcyc, ferr, um, umem, ucyc, uerr)
	}
}

// TestStepNMatchesStepLoop holds StepN (arbitrary batch sizes, fusion
// engaged) to the same outcome as a strict one-cycle Step loop on an
// identically configured machine — the bulk-vs-sequential contract.
func TestStepNMatchesStepLoop(t *testing.T) {
	r := rand.New(rand.NewSource(220))
	for iter := 0; iter < 60; iter++ {
		prog := randomFusibleXIMDProgram(r)
		if err := prog.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		cfg := Config{MaxCycles: 300, TolerateConflicts: r.Intn(2) == 0, DetectLivelock: r.Intn(2) == 0}

		build := func() (*Machine, *mem.Shared) {
			memory := mem.NewShared(diffMemWords)
			for i := uint32(0); i < diffMemWords; i++ {
				memory.Poke(i, isa.WordFromInt(int32(i)*3-700))
			}
			c := cfg
			c.Memory = memory
			m, err := New(prog, c)
			if err != nil {
				t.Fatalf("iter %d: New: %v", iter, err)
			}
			for i := uint8(0); i < 24; i++ {
				m.Regs().Poke(i, isa.WordFromInt(int32(i)*7-40))
			}
			return m, memory
		}

		bm, bmem := build()
		var berr error
		for {
			// Batch sizes cycle through awkward values, forcing fused runs
			// to be entered, capped mid-run, and re-entered at interior
			// addresses.
			running, err := bm.StepN(uint64(1 + (bm.Cycle() % 7)))
			if err != nil {
				berr = err
				break
			}
			if !running {
				break
			}
		}

		sm, smem := build()
		var serr error
		for {
			running, err := sm.Step()
			if err != nil {
				serr = err
				break
			}
			if !running {
				break
			}
		}
		assertMachinesAgree(t, fmt.Sprintf("iter %d", iter), "stepN", "step", prog,
			bm, bmem, bm.Cycle(), berr, sm, smem, sm.Cycle(), serr)
	}
}

// TestFusionEngages guards against the net silently testing nothing: a
// straight-line program must actually produce nonzero run lengths and
// take the fused path.
func TestFusionEngages(t *testing.T) {
	n := 6
	p := &isa.Program{NumFU: 4, Instrs: make([]isa.Instruction, n)}
	for addr := 0; addr < n; addr++ {
		for fu := 0; fu < 4; fu++ {
			pc := isa.Parcel{Data: isa.DataOp{Op: isa.OpIAdd, A: isa.R(uint8(fu)), B: isa.I(1), Dest: uint8(fu)}}
			if addr == n-1 {
				pc.Ctrl = isa.Halt()
			} else {
				pc.Ctrl = isa.Goto(isa.Addr(addr + 1))
			}
			p.Instrs[addr][fu] = pc
		}
	}
	d, err := Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.fuse.runLen[0]; got != uint32(n-1) {
		t.Fatalf("runLen[0] = %d, want %d", got, n-1)
	}
	m, err := New(nil, Config{Decoded: d})
	if err != nil {
		t.Fatal(err)
	}
	if !m.fuseOK {
		t.Fatal("fuseOK = false on a plain fast-engine machine")
	}
	if k := m.fusibleAt(); k != uint64(n-1) {
		t.Fatalf("fusibleAt = %d, want %d", k, n-1)
	}
	cycles, err := m.Run()
	if err != nil || cycles != uint64(n) {
		t.Fatalf("Run = %d, %v; want %d cycles", cycles, err, n)
	}
	if got := m.Regs().Peek(2).Int(); got != int32(n) {
		t.Fatalf("r2 = %d, want %d", got, n)
	}
}

// FuzzFusionBoundary fuzzes the fusion boundary finder: for arbitrary
// generator seeds it checks the structural invariants of the fused
// tables against a direct re-derivation from the program, then runs the
// program fused and unfused and requires identical outcomes.
func FuzzFusionBoundary(f *testing.F) {
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, flags uint8) {
		r := rand.New(rand.NewSource(seed))
		var prog *isa.Program
		if flags&8 != 0 {
			prog = randomXIMDProgram(r)
		} else {
			prog = randomFusibleXIMDProgram(r)
		}
		if err := prog.Validate(); err != nil {
			t.Skip()
		}
		d, err := Predecode(prog)
		if err != nil {
			t.Skip()
		}
		fi := d.fuse
		n := prog.NumFU
		plen := prog.Len()
		if len(fi.runLen) != plen || len(fi.words) != plen {
			t.Fatalf("fusion table sized %d/%d for program of %d words", len(fi.runLen), len(fi.words), plen)
		}
		for addr := 0; addr < plen; addr++ {
			// Re-derive linearity straight from the program text.
			linear := true
			seen := map[uint8]bool{}
			for fu := 0; fu < n; fu++ {
				pc := prog.Instrs[addr][fu]
				if pc.Trap || pc.Ctrl.Kind != isa.CtrlGoto || pc.Ctrl.T1 != isa.Addr(addr+1) || addr+1 >= plen {
					linear = false
					break
				}
				if isa.ClassOf(pc.Data.Op).WritesReg() {
					if seen[pc.Data.Dest] {
						linear = false
						break
					}
					seen[pc.Data.Dest] = true
				}
			}
			if linear != (fi.runLen[addr] > 0) {
				t.Fatalf("addr %d: linear = %v but runLen = %d", addr, linear, fi.runLen[addr])
			}
			if !linear {
				continue
			}
			next := uint32(0)
			if addr+1 < plen {
				next = fi.runLen[addr+1]
			}
			if fi.runLen[addr] != next+1 {
				t.Fatalf("addr %d: runLen = %d, want %d", addr, fi.runLen[addr], next+1)
			}
			w := &fi.words[addr]
			if w.opStart > w.opEnd || int(w.opEnd) > len(fi.ops) {
				t.Fatalf("addr %d: op range [%d,%d) outside %d ops", addr, w.opStart, w.opEnd, len(fi.ops))
			}
			// Counts must match a recount of the word's slots.
			var loads, stores, reads, writes, nonNops int
			for fu := 0; fu < n; fu++ {
				dop := prog.Instrs[addr][fu].Data
				cl := isa.ClassOf(dop.Op)
				if dop.Op == isa.OpNop {
					if w.nopMask&(1<<fu) == 0 {
						t.Fatalf("addr %d: FU%d nop not in nopMask", addr, fu)
					}
					continue
				}
				nonNops++
				if cl.ReadsA() && dop.A.Kind != isa.Imm {
					reads++
				}
				if cl.ReadsB() && dop.B.Kind != isa.Imm {
					reads++
				}
				switch {
				case dop.Op == isa.OpLoad:
					loads++
					writes++
				case dop.Op == isa.OpStore:
					stores++
				case cl.WritesReg():
					writes++
				}
			}
			if int(w.opEnd-w.opStart) != nonNops || int(w.loads) != loads || int(w.stores) != stores ||
				int(w.reads) != reads || int(w.writes) != writes {
				t.Fatalf("addr %d: word accounting mismatch: %+v vs recount ops=%d loads=%d stores=%d reads=%d writes=%d",
					addr, *w, nonNops, loads, stores, reads, writes)
			}
		}
		cfg := Config{
			MaxCycles:         300,
			TolerateConflicts: flags&1 != 0,
			DetectLivelock:    flags&2 != 0,
			RegisteredSS:      flags&4 != 0,
		}
		assertFusionAgrees(t, fmt.Sprintf("seed %d flags %#x", seed, flags), prog, cfg)
	})
}
