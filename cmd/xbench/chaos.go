package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"ximd/internal/core"
	"ximd/internal/inject"
	"ximd/internal/mem"
	"ximd/internal/vliw"
	"ximd/internal/workloads"
)

// The chaos experiment measures graceful degradation under the seeded
// fault injector (DESIGN.md "Fault model and injection"): the same
// four-stream reduction (CHAOS-STREAMS) runs on the XIMD and the VLIW
// baseline under (1) variable memory latency, (2) transient faults with
// checkpointed retry, and (3) a hard mid-run FU failure. Everything is
// keyed off -seed; rerunning with the same seed reproduces every number.

// chaosSeed and chaosJSON are set from the -seed and -json flags.
var (
	chaosSeed int64 = 1991
	chaosJSON string
)

const chaosN = 96 // elements per stream

// chaosResults is the machine-readable record written by -json.
type chaosResults struct {
	Seed     int64              `json:"seed"`
	Workload string             `json:"workload"`
	Latency  []chaosLatencyRow  `json:"latency_curve"`
	Retry    []chaosRetryRow    `json:"transient_retry"`
	HardFail []chaosHardFailRow `json:"hard_fu_failure"`
}

type chaosLatencyRow struct {
	Spread       uint32  `json:"uniform_spread"`
	XIMDCycles   uint64  `json:"ximd_cycles"`
	VLIWCycles   uint64  `json:"vliw_cycles"`
	XIMDSlowdown float64 `json:"ximd_slowdown"`
	VLIWSlowdown float64 `json:"vliw_slowdown"`
}

type chaosRetryRow struct {
	NAKRate      float64 `json:"nak_rate"`
	Runs         int     `json:"runs"`
	XIMDOK       int     `json:"ximd_completed"`
	VLIWOK       int     `json:"vliw_completed"`
	XIMDAttempts float64 `json:"ximd_mean_attempts"`
	VLIWAttempts float64 `json:"vliw_mean_attempts"`
}

type chaosHardFailRow struct {
	Arch          string `json:"arch"`
	FailFU        int    `json:"fail_fu"`
	FailCycle     uint64 `json:"fail_cycle"`
	Error         string `json:"error"`
	StreamsOK     int    `json:"streams_with_correct_result"`
	StreamsOf     int    `json:"streams_total"`
	CyclesAtError uint64 `json:"cycles_at_error"`
}

// chaosEnv builds a fresh memory image for the instance.
func chaosEnv(data [workloads.ChaosLanes][]int32) *mem.Shared {
	env := workloads.ChaosStreams(data).NewEnv()
	return env.Mem.(*mem.Shared)
}

// chaosMachine builds the instance's XIMD or (vliwArch) VLIW machine
// over memory under an injector, with the instance's registers poked.
func chaosMachine(inst *workloads.Instance, vliwArch bool, memory *mem.Shared, inj *inject.Injector) (*core.Machine, error) {
	cfg := core.Config{Memory: memory, Inject: inj}
	var m *core.Machine
	var err error
	if vliwArch {
		m, err = vliw.New(inst.VLIW, cfg)
	} else {
		m, err = core.New(inst.XIMD, cfg)
	}
	if err != nil {
		return nil, err
	}
	for r, v := range inst.Regs {
		m.Regs().Poke(r, v)
	}
	return m, nil
}

// chaosRun runs the XIMD or (vliwArch) VLIW variant under an injector
// and verifies every stream.
func chaosRun(inst *workloads.Instance, vliwArch bool, data [workloads.ChaosLanes][]int32, inj *inject.Injector) (uint64, *mem.Shared, error) {
	memory := chaosEnv(data)
	m, err := chaosMachine(inst, vliwArch, memory, inj)
	if err != nil {
		return 0, memory, err
	}
	cycles, err := m.Run()
	if err != nil {
		return cycles, memory, err
	}
	for f := 0; f < workloads.ChaosLanes; f++ {
		if err := workloads.ChaosCheckLane(memory, data, f); err != nil {
			return cycles, memory, err
		}
	}
	return cycles, memory, nil
}

// chaosRetry drives a machine with periodic checkpoints: a transient
// fault restores the last checkpoint and bumps the injector attempt for
// a fresh draw. Returns final cycles and the attempt count.
func chaosRetry(m *core.Machine, inj *inject.Injector, every uint64, maxAttempts int) (uint64, int, error) {
	snap, err := m.Snapshot()
	if err != nil {
		return 0, 1, err
	}
	attempts := 1
	for {
		running, err := m.Step()
		if err != nil {
			if !errors.Is(err, core.ErrTransient) || attempts >= maxAttempts {
				return m.Cycle(), attempts, err
			}
			if rerr := m.Restore(snap); rerr != nil {
				return m.Cycle(), attempts, rerr
			}
			inj.NextAttempt()
			attempts++
			continue
		}
		if !running {
			return m.Cycle(), attempts, nil
		}
		if m.Cycle()%every == 0 {
			if snap, err = m.Snapshot(); err != nil {
				return m.Cycle(), attempts, err
			}
		}
	}
}

func expChaos() error {
	data := workloads.ChaosData(chaosN, chaosSeed)
	inst := workloads.ChaosStreams(data)
	res := chaosResults{Seed: chaosSeed, Workload: inst.Name}

	// 1. Latency tolerance: uniform extra load latency in [0, L].
	fmt.Printf("latency tolerance (uniform extra load latency in [0,L], seed %d):\n", chaosSeed)
	fmt.Printf("  %-4s %12s %12s %10s %10s\n", "L", "XIMD cyc", "VLIW cyc", "XIMD x", "VLIW x")
	var baseX, baseV uint64
	for _, spread := range []uint32{0, 1, 2, 4, 8, 16} {
		var inj *inject.Injector
		if spread > 0 {
			inj = inject.MustNew(inject.Config{
				Seed:    chaosSeed,
				Latency: inject.LatencyModel{Kind: inject.LatencyUniform, Min: 0, Max: spread},
			})
		}
		xc, _, err := chaosRun(inst, false, data, inj)
		if err != nil {
			return fmt.Errorf("latency L=%d XIMD: %w", spread, err)
		}
		vc, _, err := chaosRun(inst, true, data, inj)
		if err != nil {
			return fmt.Errorf("latency L=%d VLIW: %w", spread, err)
		}
		if spread == 0 {
			baseX, baseV = xc, vc
		}
		row := chaosLatencyRow{
			Spread: spread, XIMDCycles: xc, VLIWCycles: vc,
			XIMDSlowdown: float64(xc) / float64(baseX),
			VLIWSlowdown: float64(vc) / float64(baseV),
		}
		res.Latency = append(res.Latency, row)
		fmt.Printf("  %-4d %12d %12d %9.2fx %9.2fx\n", spread, xc, vc, row.XIMDSlowdown, row.VLIWSlowdown)
	}

	// 2. Transient faults with checkpointed retry (snapshot every 64
	// cycles, ≤16 attempts), across 20 seeded campaigns per rate.
	const runs, every, maxAttempts = 20, 64, 16
	fmt.Printf("\ntransient NAKs with checkpoint-retry (snapshot every %d cycles, <=%d attempts, %d runs):\n",
		every, maxAttempts, runs)
	fmt.Printf("  %-8s %10s %10s %14s %14s\n", "NAK p", "XIMD ok", "VLIW ok", "XIMD attempts", "VLIW attempts")
	for _, p := range []float64{0.0005, 0.002, 0.01} {
		row := chaosRetryRow{NAKRate: p, Runs: runs}
		var xAtt, vAtt int
		for i := 0; i < runs; i++ {
			icfg := inject.Config{Seed: chaosSeed + int64(i), Transient: inject.Transient{MemNAK: p}}

			for _, vliwArch := range []bool{false, true} {
				inj := inject.MustNew(icfg)
				memory := chaosEnv(data)
				m, err := chaosMachine(inst, vliwArch, memory, inj)
				if err != nil {
					return err
				}
				_, att, err := chaosRetry(m, inj, every, maxAttempts)
				ok := err == nil && chaosVerify(memory, data)
				if vliwArch {
					vAtt += att
					if ok {
						row.VLIWOK++
					}
				} else {
					xAtt += att
					if ok {
						row.XIMDOK++
					}
				}
			}
		}
		row.XIMDAttempts = float64(xAtt) / runs
		row.VLIWAttempts = float64(vAtt) / runs
		res.Retry = append(res.Retry, row)
		fmt.Printf("  %-8g %7d/%-2d %7d/%-2d %14.2f %14.2f\n",
			p, row.XIMDOK, runs, row.VLIWOK, runs, row.XIMDAttempts, row.VLIWAttempts)
	}

	// 3. Hard FU failure mid-run: the XIMD finishes the surviving
	// streams (degraded completion); the VLIW latches a terminal error
	// the cycle the failure lands.
	const failFU, failCycle = 2, 30
	fmt.Printf("\nhard FU failure (FU%d dies at cycle %d):\n", failFU, failCycle)
	icfg := inject.Config{Seed: chaosSeed, FUFailures: []inject.FUFailure{{FU: failFU, Cycle: failCycle}}}

	xc, xmem, xerr := chaosRun(inst, false, data, inject.MustNew(icfg))
	if !errors.Is(xerr, core.ErrFUFailed) {
		return fmt.Errorf("hard failure: XIMD err = %v, want ErrFUFailed", xerr)
	}
	xrow := chaosHardFailRow{
		Arch: "XIMD", FailFU: failFU, FailCycle: failCycle,
		Error: xerr.Error(), StreamsOf: workloads.ChaosLanes, CyclesAtError: xc,
	}
	for f := 0; f < workloads.ChaosLanes; f++ {
		if workloads.ChaosCheckLane(xmem, data, f) == nil {
			xrow.StreamsOK++
		}
	}
	res.HardFail = append(res.HardFail, xrow)
	fmt.Printf("  XIMD: %d/%d stream results correct after %d cycles (degraded completion)\n",
		xrow.StreamsOK, xrow.StreamsOf, xc)
	fmt.Printf("        error: %v\n", xerr)
	if xrow.StreamsOK != workloads.ChaosLanes-1 {
		return fmt.Errorf("hard failure: XIMD completed %d streams, want %d",
			xrow.StreamsOK, workloads.ChaosLanes-1)
	}

	vc, vmem, verr := chaosRun(inst, true, data, inject.MustNew(icfg))
	if !errors.Is(verr, core.ErrFUFailed) {
		return fmt.Errorf("hard failure: VLIW err = %v, want ErrFUFailed", verr)
	}
	vrow := chaosHardFailRow{
		Arch: "VLIW", FailFU: failFU, FailCycle: failCycle,
		Error: verr.Error(), StreamsOf: workloads.ChaosLanes, CyclesAtError: vc,
	}
	for f := 0; f < workloads.ChaosLanes; f++ {
		if workloads.ChaosCheckLane(vmem, data, f) == nil {
			vrow.StreamsOK++
		}
	}
	res.HardFail = append(res.HardFail, vrow)
	fmt.Printf("  VLIW: %d/%d stream results correct, terminal at cycle %d\n",
		vrow.StreamsOK, vrow.StreamsOf, vc)
	fmt.Printf("        error: %v\n", verr)

	if chaosJSON != "" {
		blob, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(chaosJSON, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", chaosJSON)
	}
	return nil
}

// chaosVerify reports whether every stream's output cell is correct.
func chaosVerify(m *mem.Shared, data [workloads.ChaosLanes][]int32) bool {
	for f := 0; f < workloads.ChaosLanes; f++ {
		if workloads.ChaosCheckLane(m, data, f) != nil {
			return false
		}
	}
	return true
}
