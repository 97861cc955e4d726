package workloads

import (
	"math/rand"
	"reflect"
	"testing"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/vliw"
)

// Engine equivalence over the real workload suite: every instance, in
// both its XIMD and VLIW variants, is executed on the fast and the
// reference engines and must match in cycle count, statistics, the full
// trace stream (including the executed parcels), final registers, and
// final memory. This is the acceptance net for the pre-decoded engines —
// the random-program differentials in core and vliw cover the error
// paths; this covers the programs the paper's numbers come from.

// ximdCapture retains a deep copy of every core cycle record, including
// the executed parcels (which trace.Recorder drops). It captures the
// lockstep (VLIW) machine's records too.
type ximdCapture struct{ recs []core.CycleRecord }

func (c *ximdCapture) Cycle(rec *core.CycleRecord) {
	cp := *rec
	cp.PC = append([]isa.Addr(nil), rec.PC...)
	cp.CC = append([]bool(nil), rec.CC...)
	cp.CCValid = append([]bool(nil), rec.CCValid...)
	cp.SS = append([]isa.Sync(nil), rec.SS...)
	cp.Halted = append([]bool(nil), rec.Halted...)
	cp.Parcels = append([]isa.Parcel(nil), rec.Parcels...)
	c.recs = append(c.recs, cp)
}

// differentialInstances builds one instance of every workload in the
// package, covering each paper example and each execution style.
func differentialInstances() []*Instance {
	r := rand.New(rand.NewSource(23))
	data := make([]int32, 64)
	for i := range data {
		data[i] = int32(r.Intn(400) - 200)
	}
	y, z, u := livermoreVectors(48)
	params := LivermoreParams{N: 48, Q: 5, R: 3, T: -2}
	xf := make([]float32, 32)
	yf := make([]float32, 32)
	for i := range xf {
		xf[i] = float32(r.Intn(100)) / 4
		yf[i] = float32(r.Intn(100)) / 8
	}
	return []*Instance{
		TPROC(3, 5, 7, 2),
		TPROCScalar(3, 5, 7, 2),
		MinMax(data),
		Bitcount(data),
		BitcountPadded(data),
		LL12(append([]int32(nil), y[:40]...)),
		LL12Scalar(append([]int32(nil), y[:40]...)),
		LL1(y, z, params),
		LL3(y, z, 48),
		LL7(y, z, u, params),
		Saxpy(2.5, xf, yf),
		IOPorts(IOPortsSS, 11, 5, 40),
		IOPorts(IOPortsFlags, 11, 5, 40),
		IOPorts(IOPortsVLIW, 11, 5, 40),
		PartialBarrier(10, 6, 40, 9),
		PartialBarrierFull(10, 6, 40, 9),
	}
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// compareSharedMem asserts two shared memories hold identical words and
// identical access counters. Non-shared memories are skipped (none of
// the workloads use one today).
func compareSharedMem(t *testing.T, fast, ref mem.Memory) {
	t.Helper()
	fm, okF := fast.(*mem.Shared)
	rm, okR := ref.(*mem.Shared)
	if !okF || !okR {
		return
	}
	fl, fs := fm.Counters()
	rl, rs := rm.Counters()
	if fl != rl || fs != rs {
		t.Fatalf("memory counter divergence: fast %d loads/%d stores, reference %d/%d", fl, fs, rl, rs)
	}
	if fm.Size() != rm.Size() {
		t.Fatalf("memory size divergence: %d vs %d", fm.Size(), rm.Size())
	}
	for a := uint32(0); a < fm.Size(); a++ {
		if fm.Peek(a) != rm.Peek(a) {
			t.Fatalf("M(%d) divergence: fast %d, reference %d", a, fm.Peek(a), rm.Peek(a))
		}
	}
}

func runXIMDEngine(t *testing.T, inst *Instance, engine core.EngineKind) (*core.Machine, *ximdCapture, mem.Memory, uint64, error) {
	t.Helper()
	env := inst.NewEnv()
	tr := &ximdCapture{}
	m, err := core.New(inst.XIMD, core.Config{Memory: env.Mem, Tracer: tr, Engine: engine})
	if err != nil {
		t.Fatalf("%s: New(engine=%d): %v", inst.Name, engine, err)
	}
	for r, v := range inst.Regs {
		m.Regs().Poke(r, v)
	}
	cycles, runErr := m.Run()
	if runErr == nil && env.Check != nil {
		if cerr := env.Check(m.Regs()); cerr != nil {
			t.Fatalf("%s: engine %d result check: %v", inst.Name, engine, cerr)
		}
	}
	return m, tr, env.Mem, cycles, runErr
}

func runVLIWEngine(t *testing.T, inst *Instance, engine core.EngineKind) (*vliw.Machine, *ximdCapture, mem.Memory, uint64, error) {
	t.Helper()
	env := inst.NewEnv()
	tr := &ximdCapture{}
	m, err := vliw.New(inst.VLIW, vliw.Config{Memory: env.Mem, Tracer: tr, Engine: engine})
	if err != nil {
		t.Fatalf("%s: vliw.New(engine=%d): %v", inst.Name, engine, err)
	}
	for r, v := range inst.Regs {
		m.Regs().Poke(r, v)
	}
	cycles, runErr := m.Run()
	if runErr == nil && env.Check != nil {
		if cerr := env.Check(m.Regs()); cerr != nil {
			t.Fatalf("%s: engine %d result check: %v", inst.Name, engine, cerr)
		}
	}
	return m, tr, env.Mem, cycles, runErr
}

func TestWorkloadEnginesEquivalent(t *testing.T) {
	for _, inst := range differentialInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			if inst.XIMD != nil {
				fm, ftr, fmem, fcyc, ferr := runXIMDEngine(t, inst, core.EngineFast)
				rm, rtr, rmem, rcyc, rerr := runXIMDEngine(t, inst, core.EngineReference)
				if fcyc != rcyc {
					t.Fatalf("XIMD cycle divergence: fast %d, reference %d", fcyc, rcyc)
				}
				if errStr(ferr) != errStr(rerr) {
					t.Fatalf("XIMD error divergence:\nfast: %s\nref:  %s", errStr(ferr), errStr(rerr))
				}
				if !reflect.DeepEqual(fm.Stats(), rm.Stats()) {
					t.Fatalf("XIMD stats divergence:\nfast: %+v\nref:  %+v", fm.Stats(), rm.Stats())
				}
				if fm.Regs().Stats() != rm.Regs().Stats() {
					t.Fatalf("XIMD regfile stats divergence:\nfast: %+v\nref:  %+v",
						fm.Regs().Stats(), rm.Regs().Stats())
				}
				if !fm.Partition().Equal(rm.Partition()) {
					t.Fatalf("XIMD partition divergence: fast %v, reference %v", fm.Partition(), rm.Partition())
				}
				for fu := 0; fu < inst.XIMD.NumFU; fu++ {
					if fm.PC(fu) != rm.PC(fu) || fm.CC(fu) != rm.CC(fu) {
						t.Fatalf("XIMD FU%d state divergence", fu)
					}
				}
				if len(ftr.recs) != len(rtr.recs) {
					t.Fatalf("XIMD trace length divergence: fast %d, reference %d", len(ftr.recs), len(rtr.recs))
				}
				for i := range ftr.recs {
					if !reflect.DeepEqual(ftr.recs[i], rtr.recs[i]) {
						t.Fatalf("XIMD trace divergence at cycle %d:\nfast: %+v\nref:  %+v",
							i, ftr.recs[i], rtr.recs[i])
					}
				}
				for reg := 0; reg < isa.NumRegs; reg++ {
					if fm.Regs().Peek(uint8(reg)) != rm.Regs().Peek(uint8(reg)) {
						t.Fatalf("XIMD r%d divergence: fast %d, reference %d",
							reg, fm.Regs().Peek(uint8(reg)), rm.Regs().Peek(uint8(reg)))
					}
				}
				compareSharedMem(t, fmem, rmem)
			}
			if inst.VLIW != nil {
				fm, ftr, fmem, fcyc, ferr := runVLIWEngine(t, inst, core.EngineFast)
				rm, rtr, rmem, rcyc, rerr := runVLIWEngine(t, inst, core.EngineReference)
				if fcyc != rcyc {
					t.Fatalf("VLIW cycle divergence: fast %d, reference %d", fcyc, rcyc)
				}
				if errStr(ferr) != errStr(rerr) {
					t.Fatalf("VLIW error divergence:\nfast: %s\nref:  %s", errStr(ferr), errStr(rerr))
				}
				if !reflect.DeepEqual(fm.Stats(), rm.Stats()) {
					t.Fatalf("VLIW stats divergence:\nfast: %+v\nref:  %+v", fm.Stats(), rm.Stats())
				}
				if fm.Regs().Stats() != rm.Regs().Stats() {
					t.Fatalf("VLIW regfile stats divergence:\nfast: %+v\nref:  %+v",
						fm.Regs().Stats(), rm.Regs().Stats())
				}
				if fm.PC(0) != rm.PC(0) || fm.Done() != rm.Done() {
					t.Fatalf("VLIW sequencer divergence")
				}
				if !reflect.DeepEqual(ftr.recs, rtr.recs) {
					t.Fatalf("VLIW trace divergence (%d vs %d records)", len(ftr.recs), len(rtr.recs))
				}
				for reg := 0; reg < isa.NumRegs; reg++ {
					if fm.Regs().Peek(uint8(reg)) != rm.Regs().Peek(uint8(reg)) {
						t.Fatalf("VLIW r%d divergence: fast %d, reference %d",
							reg, fm.Regs().Peek(uint8(reg)), rm.Regs().Peek(uint8(reg)))
					}
				}
				compareSharedMem(t, fmem, rmem)
			}
		})
	}
}
