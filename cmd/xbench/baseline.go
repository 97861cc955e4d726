package main

// The offline regression gate: xbench -baseline DIR re-runs a fixed,
// self-contained suite of simulations and diffs each against the
// archived baseline in DIR under the archive's tolerance policy
// (integral fields exact, ratio metrics within a small absolute
// tolerance). Exit status: 0 = every case matched, 1 = drift or a
// missing baseline, 2 = the archive could not be opened. -baseline-record
// DIR regenerates the archive from the current engine: it removes the
// existing log and writes one record per case with a zero timestamp, so
// the resulting file is byte-stable and can be checked in as a golden.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"ximd/internal/archive"
	"ximd/internal/hostcfg"
	"ximd/internal/runner"
)

// baselineTprocSrc is the Example 1 TPROC schedule (6 cycles, runnable
// on both architectures); the register pokes provide tproc(3,4,5,6).
const baselineTprocSrc = `
.fus 4
.fu 0
	iadd r1, r2, r5
	iadd r6, r5, r6
	iadd r1, r4, r1
	iadd r1, r5, r1
	iadd r1, r7, r6
	=> halt
.fu 1
	imult r3, r1, r6
	isub r1, r7, r7
	iadd r6, r7, r7
	nop
	nop
	=> halt
.fu 2
	iadd r3, r2, r7
	iadd r5, r3, r1
	nop
	nop
	nop
	=> halt
.fu 3
	nop
	isub r4, r5, r5
	nop
	nop
	nop
	=> halt
`

// baselineMemSrc goes through memory on both FUs, so lat=/drop=/nak=
// fault injection reshapes its cycle count, stall profile, and exit
// code.
const baselineMemSrc = `
.fus 2
.fu 0
	load #100, #0, r1
	load #101, #0, r2
	iadd r1, r2, r3
	store r3, #110
	=> halt
.fu 1
	load #102, #0, r4
	load #103, #0, r5
	imult r4, r5, r6
	store r6, #111
	=> halt
`

// baselineCase is one pinned configuration of the gate suite.
type baselineCase struct {
	name   string
	arch   runner.Arch
	src    string
	seed   int64
	inject string
	pokes  []hostcfg.RegPoke
	mem    []hostcfg.MemPoke
	peeks  []hostcfg.MemPeek
}

var tprocPokes = []hostcfg.RegPoke{{Reg: 1, Val: 3}, {Reg: 2, Val: 4}, {Reg: 3, Val: 5}, {Reg: 4, Val: 6}}

var memInit = []hostcfg.MemPoke{{Base: 100, Vals: []int32{20, 22, 7, 9}}}
var memPeeks = []hostcfg.MemPeek{{Base: 110, N: 2}}

// baselineCases spans both architectures, several seeds, and every
// fault-injection family, so an engine regression in any of them moves
// at least one archived field.
var baselineCases = []baselineCase{
	{name: "tproc/ximd", arch: runner.ArchXIMD, src: baselineTprocSrc, pokes: tprocPokes},
	{name: "tproc/vliw", arch: runner.ArchVLIW, src: baselineTprocSrc, pokes: tprocPokes},
	{name: "mem/ideal", arch: runner.ArchXIMD, src: baselineMemSrc, mem: memInit, peeks: memPeeks},
	{name: "mem/lat-fixed", arch: runner.ArchXIMD, src: baselineMemSrc, seed: 1, inject: "lat=fixed:4", mem: memInit, peeks: memPeeks},
	{name: "mem/lat-uniform", arch: runner.ArchXIMD, src: baselineMemSrc, seed: 2, inject: "lat=uniform:1:8", mem: memInit, peeks: memPeeks},
	{name: "mem/nak", arch: runner.ArchXIMD, src: baselineMemSrc, seed: 3, inject: "nak=0.3", mem: memInit, peeks: memPeeks},
	{name: "mem/drop", arch: runner.ArchXIMD, src: baselineMemSrc, seed: 4, inject: "drop=0.3", mem: memInit, peeks: memPeeks},
	{name: "mem/flip", arch: runner.ArchXIMD, src: baselineMemSrc, seed: 5, inject: "flip=0.2", mem: memInit, peeks: memPeeks},
	{name: "mem/fufail", arch: runner.ArchXIMD, src: baselineMemSrc, seed: 6, inject: "fufail=1@3", mem: memInit, peeks: memPeeks},
	// The VLIW fault paths: a whole-word stall under latency, transient
	// faults that end the run, and a hard failure that is terminal the
	// cycle it lands.
	{name: "mem/vliw-ideal", arch: runner.ArchVLIW, src: baselineMemSrc, mem: memInit, peeks: memPeeks},
	{name: "mem/vliw-lat-fixed", arch: runner.ArchVLIW, src: baselineMemSrc, seed: 1, inject: "lat=fixed:4", mem: memInit, peeks: memPeeks},
	{name: "mem/vliw-nak", arch: runner.ArchVLIW, src: baselineMemSrc, seed: 11, inject: "nak=0.3", mem: memInit, peeks: memPeeks},
	{name: "mem/vliw-drop", arch: runner.ArchVLIW, src: baselineMemSrc, seed: 4, inject: "drop=0.3", mem: memInit, peeks: memPeeks},
	{name: "mem/vliw-fufail", arch: runner.ArchVLIW, src: baselineMemSrc, seed: 6, inject: "fufail=1@3", mem: memInit, peeks: memPeeks},
}

// runBaselineCase executes one case and renders it as an archive
// record (zero timestamp: the suite's output must be byte-stable).
func runBaselineCase(c baselineCase) (archive.Record, error) {
	key, err := archive.NewKey(archive.ProgramDigest(c.arch, []byte(c.src)), c.arch, c.seed, c.inject)
	if err != nil {
		return archive.Record{}, fmt.Errorf("%s: %w", c.name, err)
	}
	rec := archive.Record{Key: key}
	prog, err := runner.Load(c.arch, []byte(c.src))
	if err != nil {
		rec.ExitCode = runner.ExitCode(err)
		rec.Error = err.Error()
		return rec, nil
	}
	res, err := runner.Run(context.Background(), prog, runner.Spec{
		Seed:     c.seed,
		Inject:   c.inject,
		RegPokes: c.pokes,
		MemPokes: c.mem,
	}, runner.Options{})
	if err != nil {
		rec.ExitCode = runner.ExitCode(err)
		rec.Error = err.Error()
		return rec, nil
	}
	doc := runner.NewResultDoc(res, c.peeks, true)
	rec.Result = &doc
	return rec, nil
}

// baselineCompare runs the suite against the archive in dir and prints
// one verdict line per case. It returns the process exit code.
func baselineCompare(dir string) int {
	a, err := archive.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbench: -baseline: %v\n", err)
		return 2
	}
	defer a.Close()
	if n := a.Skipped(); n > 0 {
		fmt.Fprintf(os.Stderr, "xbench: -baseline: warning: %d torn record(s) truncated from %s\n", n, dir)
	}

	report := archive.NewReport(archive.Tolerance{})
	for _, c := range baselineCases {
		rec, err := runBaselineCase(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -baseline: %v\n", err)
			return 2
		}
		baseline, ok := a.Latest(rec.Key)
		if !ok {
			report.Add(archive.Comparison{Key: rec.Key, Status: archive.StatusMissingBaseline})
			fmt.Printf("%-16s MISSING BASELINE (%s)\n", c.name, rec.Key.ID())
			continue
		}
		cmp := archive.Compare(baseline, rec, archive.Tolerance{})
		report.Add(cmp)
		if cmp.Status == archive.StatusPass {
			fmt.Printf("%-16s ok\n", c.name)
			continue
		}
		fmt.Printf("%-16s FAIL\n", c.name)
		for _, d := range cmp.Deltas {
			fmt.Printf("  %-24s baseline=%s current=%s\n", d.Field, d.Baseline, d.Current)
		}
	}
	if report.Pass {
		fmt.Printf("baseline gate: %d case(s) ok against %s\n", report.Compared, filepath.Join(dir, archive.LogName))
		return 0
	}
	fmt.Printf("baseline gate: %d failed, %d missing of %d case(s)\n",
		report.Failed, report.MissingBaseline, report.Compared)
	return 1
}

// baselineRecord regenerates the archive in dir from the current
// engine, replacing any existing log.
func baselineRecord(dir string) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "xbench: -baseline-record: %v\n", err)
		return 2
	}
	if err := os.Remove(filepath.Join(dir, archive.LogName)); err != nil && !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "xbench: -baseline-record: %v\n", err)
		return 2
	}
	a, err := archive.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbench: -baseline-record: %v\n", err)
		return 2
	}
	defer a.Close()
	for _, c := range baselineCases {
		rec, err := runBaselineCase(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -baseline-record: %v\n", err)
			return 2
		}
		if err := a.Append(rec); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -baseline-record: %v\n", err)
			return 2
		}
		fmt.Printf("%-16s recorded (exit %d)\n", c.name, rec.ExitCode)
	}
	fmt.Printf("baseline: %d case(s) written to %s\n", len(baselineCases), filepath.Join(dir, archive.LogName))
	return 0
}
