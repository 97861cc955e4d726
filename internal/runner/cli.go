package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ximd/internal/ckpt"
	"ximd/internal/hostcfg"
	"ximd/internal/trace"
)

// CLIMain is the shared entry point of the xsim and vsim command-line
// tools: one flag surface, one load/configure/run/report path, and one
// exit-code taxonomy for both architectures (and the same Run path the
// ximdd service uses for jobs). Flags that only make sense on the XIMD
// (-trace, -timeline, -tolerate-conflicts) are registered only there,
// preserving each tool's historical surface.
func CLIMain(tool string, arch Arch) {
	fatal := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(code)
	}

	var pokeRegs, pokeMems, peeks hostcfg.StringsFlag
	flag.Var(&pokeRegs, "poke", "register initialization rN=V (repeatable)")
	flag.Var(&pokeMems, "mem", "memory initialization ADDR=V,V,... (repeatable)")
	flag.Var(&peeks, "peek", "memory range to print after the run, ADDR:N (repeatable)")
	maxCycles := flag.Uint64("max", 0, "cycle limit (0 = default)")
	flag.Uint64Var(maxCycles, "max-cycles", 0, "cycle limit (0 = default; alias of -max)")
	seed := flag.Int64("seed", 0, "fault-injection seed (used with -inject)")
	injectSpec := flag.String("inject", "", "fault injection spec, e.g. lat=uniform:0:4,nak=0.001,fufail=2@100")
	ckptFile := flag.String("checkpoint", "", "append periodic run checkpoints to FILE (resume with -resume)")
	ckptEvery := flag.Uint64("checkpoint-every", defaultCLICheckpointEvery, "checkpoint interval in machine cycles (with -checkpoint)")
	resumeFile := flag.String("resume", "", "resume the run from the newest checkpoint in FILE")
	jsonOut := flag.Bool("json", false, "emit the result as the ximdd service's stats JSON document")
	profile := flag.Bool("profile", false, "report the per-FU stall-attribution profile (table, or a profile block with -json)")
	var doTrace, timeline, tolerate *bool
	if arch == ArchXIMD {
		doTrace = flag.Bool("trace", false, "print the Figure 10 style address trace")
		timeline = flag.Bool("timeline", false, "print the concurrent-stream timeline")
		tolerate = flag.Bool("tolerate-conflicts", false, "do not stop on same-cycle write conflicts")
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] prog.xasm|prog.img\n", tool)
		flag.PrintDefaults()
		os.Exit(ExitUsage)
	}
	if *ckptFile != "" && *ckptEvery == 0 {
		fatal(ExitUsage, fmt.Errorf("-checkpoint %s with -checkpoint-every 0 would never write a checkpoint", *ckptFile))
	}

	source, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(ExitLoad, err)
	}
	prog, err := Load(arch, source)
	if err != nil {
		fatal(ExitCode(err), err)
	}

	spec := Spec{MaxCycles: *maxCycles, Seed: *seed, Inject: *injectSpec}
	if tolerate != nil {
		spec.TolerateConflicts = *tolerate
	}
	if spec.RegPokes, err = hostcfg.ParseRegPokes(pokeRegs); err != nil {
		fatal(ExitUsage, err)
	}
	if spec.MemPokes, err = hostcfg.ParseMemPokes(pokeMems); err != nil {
		fatal(ExitUsage, err)
	}
	pk, err := hostcfg.ParseMemPeeks(peeks)
	if err != nil {
		fatal(ExitUsage, err)
	}

	opts := Options{}
	if doTrace != nil && (*doTrace || *timeline) {
		opts.Trace = true
	}

	// The checkpoint binding key ties a checkpoint file to the run that
	// wrote it: same program bytes, arch, and spec -> same key, so a
	// -resume against a different invocation is refused instead of
	// restoring state into the wrong machine.
	key := cliCheckpointKey(arch, source, spec)
	var from *ckpt.Checkpoint
	if *resumeFile != "" {
		if from, err = loadCLICheckpoint(*resumeFile); err != nil {
			fatal(ExitCode(err), err)
		}
		if from.Key != key {
			fatal(ExitUsage, fmt.Errorf("checkpoint %s was written by a different run (program, arch, or spec changed)", *resumeFile))
		}
	}
	if *ckptFile != "" {
		f, err := os.OpenFile(*ckptFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(ExitLoad, err)
		}
		defer f.Close()
		opts.CheckpointEvery = *ckptEvery
		failed := false
		opts.Checkpoint = func(c *ckpt.Checkpoint) {
			if failed {
				return
			}
			c.Key = key
			payload, err := c.Encode()
			if err == nil {
				_, err = f.Write(ckpt.AppendFrame(nil, payload))
			}
			if err == nil {
				err = f.Sync()
			}
			if err != nil {
				// Degrade the checkpoint cadence, never the run; a torn
				// tail from a later crash is handled by -resume anyway.
				fmt.Fprintf(os.Stderr, "%s: checkpoint: %v (checkpointing disabled)\n", tool, err)
				failed = true
			}
		}
	}

	var res Result
	if from != nil {
		res, err = Resume(context.Background(), prog, spec, opts, from)
	} else {
		res, err = Run(context.Background(), prog, spec, opts)
	}
	if err != nil {
		fatal(ExitCode(err), err)
	}

	if *jsonOut {
		doc := NewResultDoc(res, pk, *profile)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(ExitUsage, err)
		}
		return
	}
	if doTrace != nil && *doTrace {
		fmt.Print(trace.FormatAddressTrace(res.Trace, trace.Options{ShowSS: true}))
	}
	if timeline != nil && *timeline {
		fmt.Println("streams:", trace.FormatStreamTimeline(res.Trace))
	}
	switch arch {
	case ArchVLIW:
		s := res.Stats
		fmt.Printf("halted after %d cycles; ops=%d ops/cycle=%.2f util=%.1f%% branches=%d/%d\n",
			res.Cycles, s.TotalDataOps(), s.OpsPerCycle(), 100*s.Utilization(), s.TakenBranches, s.CondBranches)
	default:
		fmt.Printf("halted after %d cycles\n%s\n", res.Cycles, res.Stats)
	}
	if *profile {
		fmt.Print(FormatProfile(NewProfileDoc(res.Cycles, res.Stats)))
	}
	for _, p := range pk {
		fmt.Printf("M(%d..%d) = %v\n", p.Base, p.Base+uint32(p.N)-1, res.Memory.PeekInts(p.Base, p.N))
	}
}

// defaultCLICheckpointEvery matches the service's default interval
// (serve.DefaultCheckpointEvery cannot be imported here — serve depends
// on runner): under a second of simulated work lost at worst, save
// cost well under the 2% overhead budget.
const defaultCLICheckpointEvery = 1 << 23

// cliCheckpointKey digests everything that determines the run's
// outcome. Spec is a plain struct (fixed JSON field order, no maps), so
// the digest is stable across invocations and platforms.
func cliCheckpointKey(arch Arch, source []byte, spec Spec) string {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("runner: spec marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(arch))
	h.Write([]byte{0})
	h.Write(source)
	h.Write([]byte{0})
	h.Write(specJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// loadCLICheckpoint reads a -checkpoint file and returns its newest
// decodable checkpoint, skipping a torn tail (the file is append-only,
// so a crash mid-write only ever damages the end).
func loadCLICheckpoint(path string) (*ckpt.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &LoadError{Err: err}
	}
	payloads, _, _ := ckpt.ScanFrames(data)
	for i := len(payloads) - 1; i >= 0; i-- {
		if c, err := ckpt.Decode(payloads[i]); err == nil {
			return c, nil
		}
	}
	return nil, &LoadError{Err: fmt.Errorf("%s holds no usable checkpoint", path)}
}
