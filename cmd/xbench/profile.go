package main

import (
	"fmt"
	"math/rand"

	"ximd/internal/inject"
	"ximd/internal/runner"
	"ximd/internal/workloads"
)

// The profile experiment is the stall-attribution companion to the
// Figure 10 trace: instead of asking *where* each sequencer was every
// cycle, it asks what every FU-cycle was *spent on* — busy, waiting on
// the SS network, idling in a scheduled nop, stalled on memory, or
// halted. Two regimes:
//
//  1. MINMAX with idealized memory — the paper's fork/join example,
//     where the XIMD's cost is sync-wait at the implicit barrier and
//     the VLIW's is padded nops (same cycles, different attribution).
//  2. CHAOS-STREAMS under uniform extra load latency — where the XIMD
//     converts memory stalls into per-stream slip while the lockstep
//     VLIW serializes every stall across the whole word.
//
// Every table tiles exactly: busy + syncwait + idle + memstall +
// failed + halted == cycles for each FU (the AttributedFUCycles
// invariant the engines enforce under test).

// profSpread is the uniform extra load latency for the chaos regime.
const profSpread = 8

func expProfile() error {
	r := rand.New(rand.NewSource(7))
	data := make([]int32, 64)
	for i := range data {
		data[i] = int32(r.Intn(100000) - 50000)
	}
	inst := workloads.MinMax(data)

	fmt.Println("MINMAX n=64, idealized memory — where each FU-cycle goes:")
	mx, err := workloads.RunXIMD(inst, nil)
	if err != nil {
		return err
	}
	fmt.Println("  XIMD:")
	fmt.Print(indent(runner.FormatProfile(runner.NewProfileDoc(mx.Cycle(), mx.Stats()))))
	mv, err := workloads.RunVLIW(inst, nil)
	if err != nil {
		return err
	}
	fmt.Println("  VLIW:")
	fmt.Print(indent(runner.FormatProfile(runner.NewProfileDoc(mv.Cycle(), mv.Stats()))))
	fmt.Println("  (XIMD pays the barrier as sync-wait; the VLIW schedule pays it as nops.)")

	cdata := workloads.ChaosData(chaosN, chaosSeed)
	cinst := workloads.ChaosStreams(cdata)
	fmt.Printf("\nCHAOS-STREAMS under lat=uniform:0:%d (seed %d) — stall attribution:\n", profSpread, chaosSeed)

	icfg := inject.Config{
		Seed:    chaosSeed,
		Latency: inject.LatencyModel{Kind: inject.LatencyUniform, Min: 0, Max: profSpread},
	}
	var cycles [2]uint64
	for i, arch := range []string{"XIMD", "VLIW"} {
		m, err := chaosMachine(cinst, arch == "VLIW", chaosEnv(cdata), inject.MustNew(icfg))
		if err != nil {
			return err
		}
		if cycles[i], err = m.Run(); err != nil {
			return fmt.Errorf("chaos %s: %w", arch, err)
		}
		fmt.Printf("  %s:\n", arch)
		fmt.Print(indent(runner.FormatProfile(runner.NewProfileDoc(cycles[i], m.Stats()))))
	}
	fmt.Printf("  (%d vs %d cycles: each XIMD stream absorbs its own latency draws; the\n", cycles[0], cycles[1])
	fmt.Println("   lockstep VLIW stalls the whole word on every one.)")
	return nil
}

// indent prefixes every non-empty line with four spaces for nesting
// profile tables under their architecture heading.
func indent(s string) string {
	out := make([]byte, 0, len(s)+len(s)/8)
	atStart := true
	for i := 0; i < len(s); i++ {
		if atStart && s[i] != '\n' {
			out = append(out, ' ', ' ', ' ', ' ')
		}
		atStart = s[i] == '\n'
		out = append(out, s[i])
	}
	return string(out)
}
