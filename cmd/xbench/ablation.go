package main

import (
	"context"
	"fmt"
	"math/rand"

	"ximd/internal/core"
	"ximd/internal/sweep"
	"ximd/internal/workloads"
)

// expAblation measures the design decisions DESIGN.md calls out:
//
//  1. the combinational SS network of Figure 8 (vs a registered one) —
//     every barrier and SS-gated handoff costs an extra cycle when SS is
//     registered;
//  2. equal-path-length padding (Example 2 style) vs explicit barriers
//     (Example 3 style) — the crossover is the data's bit density.
func expAblation() error {
	// 1. Combinational vs registered SS on barrier-heavy BITCOUNT1.
	r := rand.New(rand.NewSource(17))
	data := make([]int32, 32)
	for i := range data {
		data[i] = int32(r.Uint32())
	}
	inst := workloads.Bitcount(data)
	decoded, err := core.Predecode(inst.XIMD)
	if err != nil {
		return err
	}
	ssTask := func(registered bool) sweep.Task {
		return sweep.Task{Name: inst.Name, Run: func(context.Context) (sweep.Outcome, error) {
			m, err := workloads.Run(inst, core.Config{Decoded: decoded, RegisteredSS: registered})
			if err != nil {
				return sweep.Outcome{}, err
			}
			return sweep.Outcome{Cycles: m.Cycle(), Stats: m.Stats()}, nil
		}}
	}

	// 2. Padding vs barrier across bit densities.
	densities := []struct {
		name string
		gen  func(*rand.Rand) int32
	}{
		{"sparse (0..7)", func(r *rand.Rand) int32 { return int32(r.Intn(8)) }},
		{"medium (16-bit)", func(r *rand.Rand) int32 { return int32(r.Intn(1 << 16)) }},
		{"dense (bit 31 set)", func(r *rand.Rand) int32 { return int32(r.Uint32() | 0x80000000) }},
	}

	// One sweep covers all three ablations; indexes below match this
	// task order.
	tasks := []sweep.Task{ssTask(false), ssTask(true)}
	for _, d := range densities {
		rr := rand.New(rand.NewSource(23))
		vals := make([]int32, 24)
		for i := range vals {
			vals[i] = d.gen(rr)
		}
		tasks = append(tasks,
			sweep.XIMD(workloads.Bitcount(vals)),
			sweep.XIMD(workloads.BitcountPadded(vals)))
	}
	// 3. Partial barriers (Section 3.3's generalization) vs full barriers
	// on two asymmetric producer/consumer groups.
	partialBase := len(tasks)
	tasks = append(tasks,
		sweep.XIMD(workloads.PartialBarrier(2, 40, 40, 2)),
		sweep.XIMD(workloads.PartialBarrierFull(2, 40, 40, 2)))

	res, err := runSweep(tasks)
	if err != nil {
		return err
	}

	comb, regd := res[0].Cycles, res[1].Cycles
	fmt.Println("SS network (bitcount n=32, barrier every 4 elements):")
	fmt.Printf("  combinational (paper, Figure 8): %6d cycles\n", comb)
	fmt.Printf("  registered (ablation):           %6d cycles (+%d, one per barrier/handoff)\n",
		regd, regd-comb)

	fmt.Println("\nequal-length padding (Example 2 style) vs ALL-SS barrier (Example 3 style), n=24:")
	fmt.Printf("  %-22s %10s %10s %10s\n", "data", "barrier", "padded", "winner")
	for i, d := range densities {
		mb, mp := res[2+2*i], res[2+2*i+1]
		winner := "barrier"
		if mp.Cycles < mb.Cycles {
			winner = "padded"
		}
		fmt.Printf("  %-22s %10d %10d %10s\n", d.name, mb.Cycles, mp.Cycles, winner)
	}
	bprog := workloads.Bitcount([]int32{1, 2, 3, 4}).XIMD
	pprog := workloads.BitcountPadded([]int32{1, 2, 3, 4}).XIMD
	fmt.Printf("  static size: barrier %d rows / %d parcels, padded %d rows / %d parcels\n",
		bprog.Len(), bprog.OccupiedParcels(), pprog.Len(), pprog.OccupiedParcels())

	mp, mf := res[partialBase], res[partialBase+1]
	fmt.Println("\npartial vs full barriers (two asymmetric producer/consumer groups):")
	fmt.Printf("  allss{0,1} + allss{2,3} (partial): %5d cycles\n", mp.Cycles)
	fmt.Printf("  allss at both points (full):       %5d cycles (%.2fx slower: groups serialize)\n",
		mf.Cycles, float64(mf.Cycles)/float64(mp.Cycles))
	return nil
}
