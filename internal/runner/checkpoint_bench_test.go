package runner

import (
	"context"
	"testing"

	"ximd/internal/ckpt"
	"ximd/internal/core"
	"ximd/internal/mem"
)

// benchLoopSrc is a ~30M-cycle countdown: long enough that the default
// 1<<23 checkpoint interval fires a few times per run.
const benchLoopSrc = `
.fus 1
.fu 0
        iadd #3163, #0, r1
        imult r1, r1, r1
loop:   isub r1, #1, r1
        gt r1, #0
        nop => if cc0 loop fin
fin:    store r1, #300
        nop => halt
`

// benchCheckpointOverhead measures runner throughput with periodic
// checkpointing (snapshot + wire encode, the full ximdd save path minus
// the disk) against the plain run loop. E-CKPT in EXPERIMENTS.md holds
// the default interval's overhead under 2%.
func benchCheckpointOverhead(b *testing.B, every uint64) {
	prog, err := Load(ArchXIMD, []byte(benchLoopSrc))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{}
	if every > 0 {
		opts.CheckpointEvery = every
		opts.Checkpoint = func(c *ckpt.Checkpoint) {
			if _, err := c.Encode(); err != nil {
				b.Error(err)
			}
		}
	}
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), prog, Spec{MaxCycles: 100_000_000}, opts)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "host-ns/machine-cycle")
	}
}

func BenchmarkRunNoCheckpoint(b *testing.B) { benchCheckpointOverhead(b, 0) }
func BenchmarkRunCheckpointDefault(b *testing.B) {
	benchCheckpointOverhead(b, 1<<23) // serve.DefaultCheckpointEvery
}
func BenchmarkRunCheckpointDense(b *testing.B) { benchCheckpointOverhead(b, 1<<20) }

// BenchmarkCheckpointSave is the per-save cost on its own: snapshot and
// wire-encode a benchLoopSrc machine mid-run (the save path minus the
// disk). The snapshot copies the memory's backed prefix, so the cost
// follows what the run has touched, not the 4 MB address space.
func BenchmarkCheckpointSave(b *testing.B) {
	prog, err := Load(ArchXIMD, []byte(benchLoopSrc))
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(nil, core.Config{Decoded: prog.dec, Memory: mem.NewShared(0), MaxCycles: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.StepN(1 << 16); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (&ckpt.Checkpoint{Arch: string(ArchXIMD), Cycle: m.Cycle(), Ximd: s}).Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
