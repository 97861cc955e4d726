package vliw

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ximd/internal/core"
	"ximd/internal/inject"
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Fault injection on the single-sequencer machine: the fast and
// reference engines must agree under any seeded campaign, a hard FU
// failure must latch a terminal error the cycle it lands, and a load
// stall must freeze the whole instruction word.

func randomVLIWInjectConfig(r *rand.Rand) inject.Config {
	cfg := inject.Config{Seed: r.Int63()}
	for !cfg.Enabled() {
		switch r.Intn(4) {
		case 0:
		case 1:
			cfg.Latency = inject.LatencyModel{Kind: inject.LatencyFixed, Fixed: uint32(1 + r.Intn(4))}
		case 2:
			lo := uint32(r.Intn(3))
			cfg.Latency = inject.LatencyModel{
				Kind: inject.LatencyUniform, Min: lo, Max: lo + uint32(r.Intn(7)),
			}
		case 3:
			cfg.Latency = inject.LatencyModel{
				Kind: inject.LatencyBanked, BankBits: uint8(1 + r.Intn(4)),
				Hot: uint32(r.Intn(2)), Cold: uint32(2 + r.Intn(6)),
			}
		}
		if r.Intn(2) == 0 {
			cfg.Transient.RegPortDrop = float64(r.Intn(3)) * 0.004
			cfg.Transient.MemNAK = float64(r.Intn(3)) * 0.004
			cfg.Transient.BitFlip = float64(r.Intn(3)) * 0.02
		}
		if r.Intn(4) == 0 {
			cfg.FUFailures = append(cfg.FUFailures, inject.FUFailure{
				FU: r.Intn(isa.NumFU), Cycle: uint64(r.Intn(40)),
			})
		}
	}
	return cfg
}

func runVLIWInject(t *testing.T, p *Program, inj *inject.Injector, engine core.EngineKind) (*Machine, *vliwCapture, *mem.Shared, uint64, error) {
	t.Helper()
	memory := mem.NewShared(1024)
	for i := uint32(0); i < 1024; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*5-900))
	}
	tr := &vliwCapture{}
	m, err := New(p, Config{Engine: engine, Memory: memory, MaxCycles: 500, Tracer: tr, Inject: inj})
	if err != nil {
		t.Fatalf("New(engine=%d): %v", engine, err)
	}
	for i := uint8(0); i < 12; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
	}
	cycles, runErr := m.Run()
	return m, tr, memory, cycles, runErr
}

// TestDifferentialVLIWInjection fuzzes random programs under seeded
// injection campaigns through both engines.
func TestDifferentialVLIWInjection(t *testing.T) {
	r := rand.New(rand.NewSource(8181))
	for iter := 0; iter < 150; iter++ {
		p := randomVLIWProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		inj, err := inject.New(randomVLIWInjectConfig(r))
		if err != nil {
			t.Fatalf("iter %d: invalid injection config: %v", iter, err)
		}
		tag := fmt.Sprintf("iter %d (inject %s)", iter, inj)
		fm, ftr, fmem, fcyc, ferr := runVLIWInject(t, p, inj, core.EngineFast)
		rm, rtr, rmem, rcyc, rerr := runVLIWInject(t, p, inj, core.EngineReference)
		if fcyc != rcyc {
			t.Fatalf("%s: cycle divergence: fast %d, reference %d", tag, fcyc, rcyc)
		}
		if errText(ferr) != errText(rerr) {
			t.Fatalf("%s: error divergence:\nfast: %s\nref:  %s", tag, errText(ferr), errText(rerr))
		}
		if !reflect.DeepEqual(fm.Stats(), rm.Stats()) {
			t.Fatalf("%s: stats divergence:\nfast: %+v\nref:  %+v", tag, fm.Stats(), rm.Stats())
		}
		if !reflect.DeepEqual(ftr.recs, rtr.recs) {
			t.Fatalf("%s: trace divergence (%d vs %d records)", tag, len(ftr.recs), len(rtr.recs))
		}
		for reg := 0; reg < isa.NumRegs; reg++ {
			if fm.Regs().Peek(uint8(reg)) != rm.Regs().Peek(uint8(reg)) {
				t.Fatalf("%s: r%d divergence", tag, reg)
			}
		}
		for a := uint32(0); a < 1024; a++ {
			if fmem.Peek(a) != rmem.Peek(a) {
				t.Fatalf("%s: M(%d) divergence", tag, a)
			}
		}
	}
}

// loopProgram is an n-iteration countdown loop with one load per pass.
func loopProgram() *Program {
	p := &Program{NumFU: 4, Instrs: make([]Instruction, 3)}
	p.Instrs[0].Ops[0] = isa.DataOp{Op: isa.OpIAdd, A: isa.I(5), B: isa.I(0), Dest: 0}
	// Prime CC2: the conditional branch reads the previous cycle's CC.
	p.Instrs[0].Ops[2] = isa.DataOp{Op: isa.OpGt, A: isa.I(5), B: isa.I(1)}
	p.Instrs[0].Ctrl = isa.Goto(1)
	p.Instrs[1].Ops[0] = isa.DataOp{Op: isa.OpISub, A: isa.R(0), B: isa.I(1), Dest: 0}
	p.Instrs[1].Ops[1] = isa.DataOp{Op: isa.OpLoad, A: isa.I(100), B: isa.I(0), Dest: 4}
	p.Instrs[1].Ops[2] = isa.DataOp{Op: isa.OpGt, A: isa.R(0), B: isa.I(1)}
	p.Instrs[1].Ctrl = isa.IfCC(2, 1, 2)
	p.Instrs[2].Ctrl = isa.Halt()
	return p
}

// TestVLIWWholeWordStall: under fixed latency k, every load freezes the
// single sequencer for k cycles, charged to every FU's stall counter —
// the architectural contrast with the XIMD's per-stream stalls.
func TestVLIWWholeWordStall(t *testing.T) {
	base, err := New(loopProgram(), Config{Memory: mem.NewShared(1024), MaxCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	baseCycles, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	inj := inject.MustNew(inject.Config{
		Latency: inject.LatencyModel{Kind: inject.LatencyFixed, Fixed: k},
	})
	for _, engine := range []core.EngineKind{core.EngineFast, core.EngineReference} {
		tr := &vliwCapture{}
		m, err := New(loopProgram(), Config{Engine: engine, Memory: mem.NewShared(1024), MaxCycles: 1000, Inject: inj, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		// The trace keeps the VLIW shape: one PC, and on a stall cycle
		// no word and every FU stalled.
		var stalled uint64
		for _, rec := range tr.recs {
			if len(rec.PC) != 1 {
				t.Fatalf("engine %d: cycle %d traced %d PCs", engine, rec.Cycle, len(rec.PC))
			}
			if rec.Stalled == nil {
				if len(rec.Parcels) != 4 {
					t.Fatalf("engine %d: cycle %d traced %d parcels, want the 4-FU word", engine, rec.Cycle, len(rec.Parcels))
				}
				continue
			}
			stalled++
			if rec.Parcels != nil || len(rec.Stalled) != 4 {
				t.Fatalf("engine %d: stall cycle %d record %+v", engine, rec.Cycle, rec)
			}
			for fu, s := range rec.Stalled {
				if !s {
					t.Fatalf("engine %d: stall cycle %d: FU%d not stalled", engine, rec.Cycle, fu)
				}
			}
		}
		loads := m.Stats().Loads
		if stalled != uint64(k)*loads {
			t.Fatalf("engine %d: %d stall cycles traced, want %d", engine, stalled, uint64(k)*loads)
		}
		want := baseCycles + uint64(k)*loads
		if cycles != want {
			t.Fatalf("engine %d: %d cycles with %d loads at +%d, want %d (base %d)",
				engine, cycles, loads, k, want, baseCycles)
		}
		st := m.Stats()
		for fu := 0; fu < 4; fu++ {
			if st.StallCycles[fu] != uint64(k)*loads {
				t.Fatalf("engine %d: FU%d stalled %d cycles, want %d (whole-word stall)",
					engine, fu, st.StallCycles[fu], uint64(k)*loads)
			}
		}
	}
}

// TestVLIWFUFailureLatches: the VLIW needs every FU every word, so a
// hard failure latches a terminal error the cycle it lands — even on an
// FU slot the program only fills with nops.
func TestVLIWFUFailureLatches(t *testing.T) {
	inj := inject.MustNew(inject.Config{
		FUFailures: []inject.FUFailure{{FU: 3, Cycle: 4}},
	})
	for _, engine := range []core.EngineKind{core.EngineFast, core.EngineReference} {
		m, err := New(loopProgram(), Config{Engine: engine, Memory: mem.NewShared(1024), MaxCycles: 1000, Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := m.Run()
		if !errors.Is(runErr, core.ErrFUFailed) {
			t.Fatalf("engine %d: err = %v, want ErrFUFailed", engine, runErr)
		}
		if m.Cycle() != 4 {
			t.Fatalf("engine %d: latched at cycle %d, want 4 (the failure cycle)", engine, m.Cycle())
		}
		if want := "vliw: cycle 4, FU3:"; !strings.Contains(errText(runErr), want) {
			t.Fatalf("engine %d: err %q does not carry %q", engine, errText(runErr), want)
		}
		if !errors.Is(m.Err(), core.ErrFUFailed) {
			t.Fatalf("engine %d: failure not latched on machine", engine)
		}
	}
}

// TestVLIWSentinelWrapping: the VLIW machine reuses the core sentinel
// taxonomy, so errors.Is must match through its fmt.Errorf wrappers.
func TestVLIWSentinelWrapping(t *testing.T) {
	m, err := New(loopProgram(), Config{Memory: mem.NewShared(1024), MaxCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, runErr := m.Run(); !errors.Is(runErr, core.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles through vliw wrapper", runErr)
	} else if errText(runErr) != "vliw: cycle 2: maximum cycle count exceeded" {
		t.Fatalf("max-cycles text changed: %q", errText(runErr))
	}

	inj := inject.MustNew(inject.Config{Transient: inject.Transient{RegPortDrop: 1}})
	m, err = New(loopProgram(), Config{Memory: mem.NewShared(1024), MaxCycles: 100, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, runErr := m.Run(); !errors.Is(runErr, core.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient through vliw wrapper", runErr)
	} else if errors.Is(runErr, core.ErrFUFailed) || errors.Is(runErr, core.ErrMaxCycles) {
		t.Fatalf("transient error matches unrelated sentinels: %v", runErr)
	}
}

// TestVLIWSnapshotRestore rewinds a faulted injected run to a mid-run
// checkpoint and replays it, requiring an identical completion, on both
// engines and across them.
func TestVLIWSnapshotRestore(t *testing.T) {
	r := rand.New(rand.NewSource(9292))
	for iter := 0; iter < 40; iter++ {
		p := randomVLIWProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: invalid program: %v", iter, err)
		}
		inj := inject.MustNew(randomVLIWInjectConfig(r))
		build := func(engine core.EngineKind) (*Machine, *mem.Shared) {
			memory := mem.NewShared(1024)
			for i := uint32(0); i < 1024; i++ {
				memory.Poke(i, isa.WordFromInt(int32(i)*5-900))
			}
			m, err := New(p, Config{Engine: engine, Memory: memory, MaxCycles: 500, Inject: inj})
			if err != nil {
				t.Fatalf("iter %d: New: %v", iter, err)
			}
			for i := uint8(0); i < 12; i++ {
				m.Regs().Poke(i, isa.WordFromInt(int32(i)*11-60))
			}
			return m, memory
		}
		finish := func(m *Machine, memory *mem.Shared) (uint64, string, [isa.NumRegs]isa.Word) {
			cycles, err := m.Run()
			var regs [isa.NumRegs]isa.Word
			for i := 0; i < isa.NumRegs; i++ {
				regs[i] = m.Regs().Peek(uint8(i))
			}
			return cycles, errText(err), regs
		}

		m, memory := build(core.EngineFast)
		for i := 0; i < 2+r.Intn(8); i++ {
			if running, _ := m.Step(); !running {
				break
			}
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("iter %d: Snapshot: %v", iter, err)
		}
		c1, e1, r1 := finish(m, memory)
		if err := m.Restore(snap); err != nil {
			t.Fatalf("iter %d: Restore: %v", iter, err)
		}
		c2, e2, r2 := finish(m, memory)
		if c1 != c2 || e1 != e2 || r1 != r2 {
			t.Fatalf("iter %d: replay diverged: %d/%s vs %d/%s", iter, c1, e1, c2, e2)
		}

		other, otherMem := build(core.EngineReference)
		if err := other.Restore(snap); err != nil {
			t.Fatalf("iter %d: cross-engine Restore: %v", iter, err)
		}
		c3, e3, r3 := finish(other, otherMem)
		if c1 != c3 || e1 != e3 || r1 != r3 {
			t.Fatalf("iter %d: cross-engine replay diverged: %d/%s vs %d/%s", iter, c1, e1, c3, e3)
		}
	}
}
