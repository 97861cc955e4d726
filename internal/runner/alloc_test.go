package runner

import (
	"context"
	"runtime"
	"testing"
)

// maxRunBytes bounds what one short run allocates: the machine, its
// statistics, and the backed prefix of its memory image — never the
// whole simulated address space.
const maxRunBytes = 64 << 10

// TestRunAllocBytes holds a TPROC run (6 cycles, no stores) on both
// architectures to maxRunBytes per op, averaged over many runs.
func TestRunAllocBytes(t *testing.T) {
	for _, arch := range []Arch{ArchXIMD, ArchVLIW} {
		prog, err := Load(arch, []byte(tprocSrc))
		if err != nil {
			t.Fatal(err)
		}
		spec := tprocSpec()
		run := func() {
			if _, err := Run(context.Background(), prog, spec, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm any lazily built state
		const runs = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxRunBytes {
			t.Errorf("%s: TPROC Run allocates %d bytes per op, want at most %d", arch, per, maxRunBytes)
		} else {
			t.Logf("%s: %d bytes per op", arch, per)
		}
	}
}

// BenchmarkRunTPROC is the per-job fixed cost of the runner on the
// smallest service job: build a machine and image, run 6 cycles.
func BenchmarkRunTPROC(b *testing.B) {
	prog, err := Load(ArchXIMD, []byte(tprocSrc))
	if err != nil {
		b.Fatal(err)
	}
	spec := tprocSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), prog, spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
