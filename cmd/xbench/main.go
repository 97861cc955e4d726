// Command xbench regenerates every figure and table of the paper's
// evaluation. Each experiment is named after its DESIGN.md id; see the
// per-experiment index there and the recorded results in EXPERIMENTS.md.
//
// Usage:
//
//	xbench -exp all          run everything
//	xbench -exp trace10      reproduce the Figure 10 address trace
//	xbench -list             list experiments
//	xbench -baseline DIR     regression gate: re-run the pinned suite
//	                         and diff it against the archived baseline
//	                         in DIR (exit 1 on any drift)
//	xbench -baseline-record DIR
//	                         (re)write the baseline archive in DIR
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"ximd/internal/sweep"
)

type experiment struct {
	name  string
	about string
	run   func() error
}

var experiments = []experiment{
	{"models", "Figures 3-6: SISD/SIMD/VLIW/MIMD emulation on the XIMD", expModels},
	{"isa", "Figure 7: the XIMD-1 instruction set", expISA},
	{"tproc", "Example 1: percolation-scheduled TPROC", expTPROC},
	{"ll12", "Livermore Loop 12: software pipelining", expLL12},
	{"minmax", "Example 2: implicit-barrier fork/join MINMAX", expMinMax},
	{"trace10", "Figure 10: the MINMAX address trace, row for row", expTrace10},
	{"bitcount", "Example 3 + Figure 11: BITCOUNT1 barrier synchronization", expBitcount},
	{"ioports", "Figure 12: non-blocking synchronizations on I/O ports", expIOPorts},
	{"tiles", "Figure 13: thread tiles and packing algorithms", expTiles},
	{"proto", "Section 4.3: prototype peak rates and pipeline cost", expProto},
	{"regfile", "Section 4.4: register file chip composition", expRegfile},
	{"speedup", "Section 4.1: XIMD vs VLIW across the workload suite", expSpeedup},
	{"ablation", "design-decision ablations: combinational SS, barrier vs padding", expAblation},
	{"chaos", "fault injection: XIMD vs VLIW degradation under latency, transients, FU failure", expChaos},
	{"profile", "stall attribution: per-FU busy/sync-wait/stall breakdown, idealized and under latency faults", expProfile},
	{"throughput", "raw simulator throughput: host-ns/machine-cycle (-fusion=false)", expThroughput},
}

// parallelism is the worker count for experiment sweeps, set by the
// -parallel flag. Experiments batch their independent simulation runs
// through runSweep, so tables are deterministic (results are collected
// in task order) at any width; -parallel 1 reproduces the serial
// execution exactly.
var parallelism = runtime.NumCPU()

// runSweep executes tasks across the configured worker pool, stopping
// at the first failure.
func runSweep(tasks []sweep.Task) ([]sweep.Result, error) {
	return sweep.Run(context.Background(), tasks, sweep.Options{
		Workers: parallelism,
		Policy:  sweep.FailFast,
	})
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines for simulation sweeps (1 = fully serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiments to `file`")
	chaos := flag.Bool("chaos", false, "shorthand for -exp chaos")
	profile := flag.Bool("profile", false, "shorthand for -exp profile")
	flag.BoolVar(&fusionOn, "fusion", fusionOn,
		"enable superop fusion in the throughput experiment (set -fusion=false to measure the per-cycle engine)")
	baseline := flag.String("baseline", "", "run the regression gate against the baseline archive in `dir`")
	baselineRec := flag.String("baseline-record", "", "(re)write the baseline archive in `dir`")
	flag.Int64Var(&chaosSeed, "seed", chaosSeed, "seed for the chaos fault-injection campaigns")
	flag.StringVar(&chaosJSON, "json", "", "write chaos results as JSON to `file`")
	flag.Parse()
	parallelism = *parallel
	if *baseline != "" {
		os.Exit(baselineCompare(*baseline))
	}
	if *baselineRec != "" {
		os.Exit(baselineRecord(*baselineRec))
	}
	if *chaos {
		*exp = "chaos"
	}
	if *profile {
		*exp = "profile"
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.about)
		}
		return
	}
	names := map[string]bool{}
	for _, n := range strings.Split(*exp, ",") {
		names[strings.TrimSpace(n)] = true
	}
	ran := 0
	for _, e := range experiments {
		if !names["all"] && !names[e.name] {
			continue
		}
		fmt.Printf("==== %s — %s ====\n", e.name, e.about)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		known := make([]string, len(experiments))
		for i, e := range experiments {
			known[i] = e.name
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "xbench: unknown experiment %q (known: %s, all)\n",
			*exp, strings.Join(known, ", "))
		os.Exit(2)
	}
}
