package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ximd/internal/isa"
	"ximd/internal/mem"
)

// Differential testing of the two execution engines: random XIMD
// programs — including ones that fault (division by zero, out-of-range
// memory, register and memory write conflicts, trap parcels) and ones
// that spin until livelock detection or the cycle limit — must produce
// bit-identical outcomes on the fast and reference engines: cycle count,
// error text, statistics, the full trace stream (with parcels), the
// SSET partition, all 256 registers, and memory.

// captureTracer retains a deep copy of every cycle record, including the
// executed parcels (which trace.Recorder drops), so two engines can be
// compared cycle for cycle.
type captureTracer struct{ recs []CycleRecord }

func (c *captureTracer) Cycle(rec *CycleRecord) {
	cp := *rec
	cp.PC = append([]isa.Addr(nil), rec.PC...)
	cp.CC = append([]bool(nil), rec.CC...)
	cp.CCValid = append([]bool(nil), rec.CCValid...)
	cp.SS = append([]isa.Sync(nil), rec.SS...)
	cp.Halted = append([]bool(nil), rec.Halted...)
	cp.Parcels = append([]isa.Parcel(nil), rec.Parcels...)
	cp.Stalled = append([]bool(nil), rec.Stalled...)
	cp.Failed = append([]bool(nil), rec.Failed...)
	c.recs = append(c.recs, cp)
}

const diffMemWords = 1024

// diffBackedWords is how much of the differential memory the tests
// initialize. The rest stays zero and outside the image's backed
// prefix, so the generators' accesses near the end of memory cover
// loads past the prefix, stores that grow it, and out-of-range faults.
const diffBackedWords = diffMemWords / 2

// randomXIMDProgram generates a short program with independent per-FU
// control: forward branches (with occasional self-loop spin waits), the
// full condition repertoire, sync signals, and deliberately hazardous
// operations so the error paths of both engines are exercised.
func randomXIMDProgram(r *rand.Rand) *isa.Program {
	numFU := 1 + r.Intn(isa.NumFU)
	n := 4 + r.Intn(20)
	p := &isa.Program{NumFU: numFU, Instrs: make([]isa.Instruction, n)}
	reg := func() uint8 { return uint8(r.Intn(24)) }
	operand := func() isa.Operand {
		if r.Intn(2) == 0 {
			return isa.R(reg())
		}
		return isa.I(int32(r.Intn(2001) - 1000))
	}
	// dest is mostly a per-FU private window so most runs make progress,
	// with a shared window so same-cycle write conflicts happen.
	dest := func(fu int) uint8 {
		if r.Intn(10) < 7 {
			return uint8(64 + fu*4 + r.Intn(4))
		}
		return uint8(r.Intn(12))
	}
	// addr is mostly a per-FU private data region, sometimes a shared
	// region (store conflicts), sometimes near or past the end of the
	// 1024-word memory (out-of-range faults).
	memAddr := func(fu int) int32 {
		switch r.Intn(10) {
		case 0:
			return int32(90 + r.Intn(10))
		case 1:
			return int32(1010 + r.Intn(30))
		default:
			return int32(100 + fu*16 + r.Intn(16))
		}
	}
	safeOps := []isa.Opcode{
		isa.OpIAdd, isa.OpISub, isa.OpIMult, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSra, isa.OpINeg, isa.OpIAbs, isa.OpNot,
		isa.OpFAdd, isa.OpFMult, isa.OpItoF,
	}
	cmpOps := []isa.Opcode{isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpGt, isa.OpGe}

	for addr := 0; addr < n; addr++ {
		for fu := 0; fu < numFU; fu++ {
			if addr > 0 && r.Intn(40) == 0 {
				p.Instrs[addr][fu] = isa.TrapParcel
				continue
			}
			var pc isa.Parcel
			switch r.Intn(10) {
			case 0:
				pc.Data = isa.Nop
			case 1:
				pc.Data = isa.DataOp{Op: cmpOps[r.Intn(len(cmpOps))], A: operand(), B: operand()}
			case 2, 3:
				if r.Intn(2) == 0 {
					pc.Data = isa.DataOp{Op: isa.OpLoad, A: isa.I(memAddr(fu)), B: isa.I(0), Dest: dest(fu)}
				} else {
					pc.Data = isa.DataOp{Op: isa.OpStore, A: operand(), B: isa.I(memAddr(fu))}
				}
			case 4:
				// Hazard: divisor immediate includes zero.
				op := isa.OpIDiv
				if r.Intn(2) == 0 {
					op = isa.OpIMod
				}
				pc.Data = isa.DataOp{Op: op, A: operand(), B: isa.I(int32(r.Intn(4) - 1)), Dest: dest(fu)}
			default:
				pc.Data = isa.DataOp{Op: safeOps[r.Intn(len(safeOps))], A: operand(), B: operand(), Dest: dest(fu)}
			}
			if r.Intn(3) == 0 {
				pc.Sync = isa.Done
			}
			if addr == n-1 {
				pc.Ctrl = isa.Halt()
				p.Instrs[addr][fu] = pc
				continue
			}
			fwd := func() isa.Addr { return isa.Addr(addr + 1 + r.Intn(n-addr-1)) }
			// tgt occasionally points back at this address: a spin wait
			// that resolves when the condition flips, or runs into
			// livelock detection / the cycle limit.
			tgt := func() isa.Addr {
				if r.Intn(8) == 0 {
					return isa.Addr(addr)
				}
				return fwd()
			}
			ccIdx := func() uint8 { return uint8(r.Intn(numFU)) }
			mask := func() uint8 { return uint8(1 + r.Intn(255)) }
			switch r.Intn(12) {
			case 0, 1:
				pc.Ctrl = isa.Goto(fwd())
			case 2:
				pc.Ctrl = isa.Halt()
			case 3:
				pc.Ctrl = isa.IfCC(ccIdx(), fwd(), tgt())
			case 4:
				pc.Ctrl = isa.IfNotCC(ccIdx(), fwd(), tgt())
			case 5:
				pc.Ctrl = isa.IfSS(ccIdx(), fwd(), tgt())
			case 6:
				pc.Ctrl = isa.IfNotSS(ccIdx(), fwd(), tgt())
			case 7:
				pc.Ctrl = isa.IfAllSS(fwd(), tgt())
			case 8:
				pc.Ctrl = isa.IfAnySS(fwd(), tgt())
			case 9:
				pc.Ctrl = isa.IfAllSSMask(mask(), fwd(), tgt())
			case 10:
				pc.Ctrl = isa.IfAnySSMask(mask(), fwd(), tgt())
			default:
				pc.Ctrl = isa.Goto(fwd())
			}
			p.Instrs[addr][fu] = pc
		}
	}
	return p
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// runEngine executes prog on one engine with a deterministic memory and
// register image and captures everything observable.
func runEngine(t *testing.T, tag string, prog *isa.Program, cfg Config, engine EngineKind) (*Machine, *captureTracer, *mem.Shared, uint64, error) {
	t.Helper()
	memory := mem.NewShared(diffMemWords)
	for i := uint32(0); i < diffBackedWords; i++ {
		memory.Poke(i, isa.WordFromInt(int32(i)*3-700))
	}
	tr := &captureTracer{}
	cfg.Engine = engine
	cfg.Memory = memory
	cfg.Tracer = tr
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("%s: New(engine=%d): %v", tag, engine, err)
	}
	for i := uint8(0); i < 24; i++ {
		m.Regs().Poke(i, isa.WordFromInt(int32(i)*7-40))
	}
	cycles, runErr := m.Run()
	return m, tr, memory, cycles, runErr
}

// assertEnginesAgree runs prog on both engines and asserts bit-identical
// outcomes, including faulting runs.
func assertEnginesAgree(t *testing.T, tag string, prog *isa.Program, cfg Config) {
	t.Helper()
	fm, ftr, fmem, fcyc, ferr := runEngine(t, tag, prog, cfg, EngineFast)
	rm, rtr, rmem, rcyc, rerr := runEngine(t, tag, prog, cfg, EngineReference)

	if fcyc != rcyc {
		t.Fatalf("%s: cycle divergence: fast %d, reference %d (fast err %v, ref err %v)",
			tag, fcyc, rcyc, ferr, rerr)
	}
	if errString(ferr) != errString(rerr) {
		t.Fatalf("%s: error divergence:\nfast: %s\nref:  %s", tag, errString(ferr), errString(rerr))
	}
	if errString(fm.Err()) != errString(rm.Err()) {
		t.Fatalf("%s: latched error divergence:\nfast: %s\nref:  %s",
			tag, errString(fm.Err()), errString(rm.Err()))
	}
	if fm.Done() != rm.Done() {
		t.Fatalf("%s: done divergence: fast %v, reference %v", tag, fm.Done(), rm.Done())
	}
	if !reflect.DeepEqual(fm.Stats(), rm.Stats()) {
		t.Fatalf("%s: stats divergence:\nfast: %+v\nref:  %+v", tag, fm.Stats(), rm.Stats())
	}
	if fm.Regs().Stats() != rm.Regs().Stats() {
		t.Fatalf("%s: regfile stats divergence:\nfast: %+v\nref:  %+v",
			tag, fm.Regs().Stats(), rm.Regs().Stats())
	}
	if !fm.Partition().Equal(rm.Partition()) {
		t.Fatalf("%s: partition divergence: fast %v, reference %v", tag, fm.Partition(), rm.Partition())
	}
	for fu := 0; fu < prog.NumFU; fu++ {
		if fm.PC(fu) != rm.PC(fu) {
			t.Fatalf("%s: FU%d PC divergence: fast %d, reference %d", tag, fu, fm.PC(fu), rm.PC(fu))
		}
		if fm.CC(fu) != rm.CC(fu) {
			t.Fatalf("%s: FU%d CC divergence: fast %v, reference %v", tag, fu, fm.CC(fu), rm.CC(fu))
		}
	}
	if len(ftr.recs) != len(rtr.recs) {
		t.Fatalf("%s: trace length divergence: fast %d, reference %d", tag, len(ftr.recs), len(rtr.recs))
	}
	for i := range ftr.recs {
		if !reflect.DeepEqual(ftr.recs[i], rtr.recs[i]) {
			t.Fatalf("%s: trace divergence at cycle %d:\nfast: %+v\nref:  %+v",
				tag, i, ftr.recs[i], rtr.recs[i])
		}
	}
	for reg := 0; reg < isa.NumRegs; reg++ {
		if fm.Regs().Peek(uint8(reg)) != rm.Regs().Peek(uint8(reg)) {
			t.Fatalf("%s: r%d divergence: fast %d, reference %d",
				tag, reg, fm.Regs().Peek(uint8(reg)), rm.Regs().Peek(uint8(reg)))
		}
	}
	fl, fs := fmem.Counters()
	rl, rs := rmem.Counters()
	if fl != rl || fs != rs {
		t.Fatalf("%s: memory counter divergence: fast %d/%d, reference %d/%d", tag, fl, fs, rl, rs)
	}
	for a := uint32(0); a < diffMemWords; a++ {
		if fmem.Peek(a) != rmem.Peek(a) {
			t.Fatalf("%s: M(%d) divergence: fast %d, reference %d", tag, a, fmem.Peek(a), rmem.Peek(a))
		}
	}
}

func TestDifferentialFastVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(1991))
	for iter := 0; iter < 400; iter++ {
		prog := randomXIMDProgram(r)
		if err := prog.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v", iter, err)
		}
		cfg := Config{
			MaxCycles:         300,
			TolerateConflicts: r.Intn(2) == 0,
			DetectLivelock:    r.Intn(2) == 0,
			RegisteredSS:      r.Intn(2) == 0,
		}
		assertEnginesAgree(t, fmt.Sprintf("iter %d (cfg %+v)", iter, cfg), prog, cfg)
	}
}

// FuzzEngineEquivalence is the open-ended variant of the differential
// test: the fuzzer picks the generator seed and the config bits.
func FuzzEngineEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, flags uint8) {
		r := rand.New(rand.NewSource(seed))
		prog := randomXIMDProgram(r)
		if err := prog.Validate(); err != nil {
			t.Skip()
		}
		cfg := Config{
			MaxCycles:         300,
			TolerateConflicts: flags&1 != 0,
			DetectLivelock:    flags&2 != 0,
			RegisteredSS:      flags&4 != 0,
		}
		assertEnginesAgree(t, fmt.Sprintf("seed %d flags %#x", seed, flags), prog, cfg)
	})
}
