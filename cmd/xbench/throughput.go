package main

import (
	"fmt"
	"time"

	"ximd"
	"ximd/internal/core"
	"ximd/internal/mem"
)

// fusionOn is the throughput experiment's superop-fusion toggle (set
// in main).
var fusionOn = true

// throughputSrc is the long arithmetic loop used as the throughput
// workload — the same program as BenchmarkSimulatorThroughput, an 8-FU
// schedule of ~100k iterations dominated by straight-line fusible words.
const throughputSrc = `
var out[1];
func main() {
    var i, s = 0;
    for (i = 0; i < 100000; i = i + 1) { s = s + i * 3 - (i >> 1); }
    out[0] = s;
}`

// expThroughput measures raw simulator throughput in host nanoseconds
// per simulated machine cycle on one machine. -fusion=false disables
// superop fusion so the per-cycle fast engine runs instead:
//
//	xbench -exp throughput                      fused superop engine
//	xbench -exp throughput -fusion=false        per-cycle fast engine
func expThroughput() error {
	c, err := ximd.Compile(throughputSrc, ximd.CompileOptions{Width: 8, Unroll: 4})
	if err != nil {
		return err
	}
	m, err := core.New(c.Prog, core.Config{
		Memory:        mem.NewShared(0),
		DisableFusion: !fusionOn,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	cycles, err := m.Run()
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("fusion %v: %d machine-cycles in %v = %.2f host-ns/machine-cycle\n",
		fusionOn, cycles, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(cycles))
	return nil
}
