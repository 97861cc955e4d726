// Benchmarks: one per reproduced table/figure. Each benchmark reports
// the simulated machine-cycle count of its experiment as the
// "machine-cycles" metric (the paper-facing number; see EXPERIMENTS.md)
// alongside the usual host-side ns/op (simulator throughput). The
// paper-format tables themselves are printed by cmd/xbench.
package ximd_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ximd"
	"ximd/internal/compiler"
	"ximd/internal/compiler/tile"
	"ximd/internal/proto"
	"ximd/internal/regfile"
	"ximd/internal/sweep"
	"ximd/internal/workloads"
)

func benchXIMD(b *testing.B, inst *workloads.Instance) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := workloads.RunXIMD(inst, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = m.Cycle()
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

func benchVLIW(b *testing.B, inst *workloads.Instance) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := workloads.RunVLIW(inst, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = m.Cycle()
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

// E-EX1 — Example 1: the TPROC percolation schedule vs its scalar form.
func BenchmarkTPROC4FU(b *testing.B)    { benchXIMD(b, workloads.TPROC(1, 2, 3, 4)) }
func BenchmarkTPROCScalar(b *testing.B) { benchXIMD(b, workloads.TPROCScalar(1, 2, 3, 4)) }

// E-LL12 — Livermore Loop 12, software-pipelined vs scalar.
func ll12Data() []int32 {
	y := make([]int32, 257)
	for i := range y {
		y[i] = int32(i * i % 911)
	}
	return y
}
func BenchmarkLL12Pipelined(b *testing.B) { benchXIMD(b, workloads.LL12(ll12Data())) }
func BenchmarkLL12Scalar(b *testing.B)    { benchXIMD(b, workloads.LL12Scalar(ll12Data())) }

// E-EX2 / E-F10 — Example 2: MINMAX on XIMD (three streams) and VLIW.
func minmaxData() []int32 {
	r := rand.New(rand.NewSource(3))
	data := make([]int32, 128)
	for i := range data {
		data[i] = int32(r.Intn(100000) - 50000)
	}
	return data
}
func BenchmarkMinMaxXIMD(b *testing.B) { benchXIMD(b, workloads.MinMax(minmaxData())) }
func BenchmarkMinMaxVLIW(b *testing.B) { benchVLIW(b, workloads.MinMax(minmaxData())) }

// E-EX3 / E-F11 — Example 3: BITCOUNT1 with the ALL-SS barrier.
func bitcountData() []int32 {
	r := rand.New(rand.NewSource(4))
	data := make([]int32, 32)
	for i := range data {
		data[i] = int32(r.Uint32())
	}
	return data
}
func BenchmarkBitcountXIMD(b *testing.B) { benchXIMD(b, workloads.Bitcount(bitcountData())) }
func BenchmarkBitcountVLIW(b *testing.B) { benchVLIW(b, workloads.Bitcount(bitcountData())) }

// E-F12 — Figure 12: the three synchronization mechanisms.
func BenchmarkIOPortsSyncBits(b *testing.B) {
	benchXIMD(b, workloads.IOPorts(workloads.IOPortsSS, 1, 1, 8))
}
func BenchmarkIOPortsMemFlags(b *testing.B) {
	benchXIMD(b, workloads.IOPorts(workloads.IOPortsFlags, 1, 1, 8))
}
func BenchmarkIOPortsVLIWSerial(b *testing.B) {
	benchXIMD(b, workloads.IOPorts(workloads.IOPortsVLIW, 1, 1, 8))
}

// E-F13 — Figure 13: tile generation and the packing algorithms.
func tileThreads(b *testing.B) []tile.Thread {
	b.Helper()
	srcs := []string{
		`var a[64], b[64]; func main() { var i; for (i = 0; i < 64; i = i + 1) { b[i] = a[i]*3 + a[i]/2 - 7; } }`,
		`var c[64], d[64]; func main() { var i; for (i = 0; i < 64; i = i + 1) { d[i] = (c[i] << 2) ^ (c[i] >> 1); } }`,
		`var e[32]; func main() { var i, s = 0; for (i = 0; i < 32; i = i + 1) { s = s + e[i]*e[i]; } e[0] = s; }`,
		`var f[16], g[16]; func main() { var i; for (i = 0; i < 16; i = i + 1) { if (f[i] > 0) { g[i] = f[i]; } else { g[i] = -f[i]; } } }`,
		`var h[8]; func main() { var i; for (i = 0; i < 8; i = i + 1) { h[i] = i*i*i; } }`,
		`var p[4], q[4]; func main() { q[0] = p[0] + p[1]; q[1] = p[2] * p[3]; }`,
	}
	threads := make([]tile.Thread, len(srcs))
	for i, src := range srcs {
		cands, err := compiler.TileCandidates(src, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		threads[i] = tile.Thread{Candidates: cands}
	}
	return threads
}

func benchPacker(b *testing.B, f func([]tile.Thread, int) (tile.Packing, error)) {
	threads := tileThreads(b)
	b.ResetTimer()
	var height int
	for i := 0; i < b.N; i++ {
		pk, err := f(threads, 8)
		if err != nil {
			b.Fatal(err)
		}
		height = pk.Height
	}
	b.ReportMetric(float64(height), "static-rows")
}

func BenchmarkTilePackShelfFFD(b *testing.B)   { benchPacker(b, tile.PackShelfFFD) }
func BenchmarkTilePackSkyline(b *testing.B)    { benchPacker(b, tile.PackSkyline) }
func BenchmarkTilePackExhaustive(b *testing.B) { benchPacker(b, tile.PackExhaustive) }

// E-F14/§4.3 — the prototype's 3-stage pipeline penalty on LL12.
func BenchmarkProtoPipelineLL12(b *testing.B) {
	inst := workloads.LL12(ll12Data())
	var cycles uint64
	for i := 0; i < b.N; i++ {
		env := inst.NewEnv()
		res, _, err := proto.RunPipelined(inst.VLIW, proto.Prototype, env.Mem, inst.Regs, 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

// E-§4.4 — register file composition arithmetic.
func BenchmarkRegfileCompose(b *testing.B) {
	var chips int
	for i := 0; i < b.N; i++ {
		c, err := regfile.Compose(regfile.MOSISChip, regfile.XIMD1Machine)
		if err != nil {
			b.Fatal(err)
		}
		chips = c.TotalChips
	}
	b.ReportMetric(float64(chips), "chips")
}

// Compiler throughput across widths (the Figure 13 tile-generation cost).
func BenchmarkCompileWidth8(b *testing.B) { benchCompile(b, 8) }
func BenchmarkCompileWidth2(b *testing.B) { benchCompile(b, 2) }

func benchCompile(b *testing.B, width int) {
	src := `
var a[64], b[64], n;
func main() {
    var i;
    for (i = 0; i < n; i = i + 1) { b[i] = a[i] * 5 + a[i] / 3; }
}`
	var rows int
	for i := 0; i < b.N; i++ {
		c, err := ximd.Compile(src, ximd.CompileOptions{Width: width, Unroll: 2})
		if err != nil {
			b.Fatal(err)
		}
		rows = c.Rows
	}
	b.ReportMetric(float64(rows), "static-rows")
}

// E-§4.1 (batch) — the whole evaluation suite as one sweep through the
// internal/sweep worker pool: the speedup-table workload pairs, the
// bitcount data-set ablation, the LL12 n-sweep, and the ioports seed
// sweep. Serial (1 worker) vs parallel (GOMAXPROCS) measures the
// harness speedup on multi-core hosts; machine-cycles is the summed
// simulated work, identical at any width.
func sweepSuiteTasks() []sweep.Task {
	r := rand.New(rand.NewSource(13))
	minmaxData := make([]int32, 128)
	for i := range minmaxData {
		minmaxData[i] = int32(r.Intn(100000) - 50000)
	}
	var tasks []sweep.Task
	// Speedup-table pairs.
	for _, inst := range []*workloads.Instance{
		workloads.TPROC(1, 2, 3, 4),
		workloads.MinMax(minmaxData),
		workloads.Bitcount(bitcountData()),
	} {
		tasks = append(tasks, sweep.XIMD(inst), sweep.VLIW(inst))
	}
	// Bitcount data sets (the ablation's density sweep).
	for _, gen := range []func(*rand.Rand) int32{
		func(r *rand.Rand) int32 { return int32(r.Intn(8)) },
		func(r *rand.Rand) int32 { return int32(r.Intn(1 << 16)) },
		func(r *rand.Rand) int32 { return int32(r.Uint32() | 0x80000000) },
	} {
		rr := rand.New(rand.NewSource(23))
		vals := make([]int32, 24)
		for i := range vals {
			vals[i] = gen(rr)
		}
		tasks = append(tasks,
			sweep.XIMD(workloads.Bitcount(vals)),
			sweep.XIMD(workloads.BitcountPadded(vals)))
	}
	// LL12 n-sweep.
	for _, n := range []int{8, 32, 128} {
		y := make([]int32, n+1)
		for i := range y {
			y[i] = int32(i * i % 1013)
		}
		tasks = append(tasks, sweep.XIMD(workloads.LL12(y)), sweep.XIMD(workloads.LL12Scalar(y)))
	}
	// IOPorts seed sweep.
	for seed := int64(0); seed < 8; seed++ {
		tasks = append(tasks, sweep.XIMD(workloads.IOPorts(workloads.IOPortsSS, seed, 1, 8)))
	}
	return tasks
}

func benchSweepSuite(b *testing.B, workers int) {
	tasks := sweepSuiteTasks()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), tasks, sweep.Options{
			Workers: workers, Policy: sweep.FailFast,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, r := range res {
			cycles += r.Cycles
		}
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

func BenchmarkSweepSuiteSerial(b *testing.B)   { benchSweepSuite(b, 1) }
func BenchmarkSweepSuiteParallel(b *testing.B) { benchSweepSuite(b, runtime.GOMAXPROCS(0)) }

// Raw simulator throughput: host nanoseconds per simulated machine cycle
// on an 8-FU machine running a long arithmetic loop.
func benchSimulatorThroughput(b *testing.B, engine ximd.EngineKind) {
	c := compileThroughputLoop(b)
	benchThroughputRuns(b, func() (uint64, error) {
		m, err := ximd.NewMachine(c.Prog, ximd.Config{Engine: engine})
		if err != nil {
			return 0, err
		}
		return m.Run()
	})
}

// compileThroughputLoop compiles the throughput benchmarks' long
// arithmetic loop for an 8-FU machine.
func compileThroughputLoop(b *testing.B) *ximd.Compiled {
	src := `
var out[1];
func main() {
    var i, s = 0;
    for (i = 0; i < 100000; i = i + 1) { s = s + i * 3 - (i >> 1); }
    out[0] = s;
}`
	c, err := ximd.Compile(src, ximd.CompileOptions{Width: 8, Unroll: 4})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchThroughputRuns times b.N fresh runs and reports host-ns per
// simulated machine cycle.
func benchThroughputRuns(b *testing.B, run func() (uint64, error)) {
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles, err := run()
		if err != nil {
			b.Fatal(err)
		}
		total += cycles
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "host-ns/machine-cycle")
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	benchSimulatorThroughput(b, ximd.EngineFast)
}

func BenchmarkSimulatorThroughputReference(b *testing.B) {
	benchSimulatorThroughput(b, ximd.EngineReference)
}

// BenchmarkSimulatorThroughputVLIW runs the same loop on the VLIW
// baseline (the compiler's output is VLIW-style, so it converts).
func BenchmarkSimulatorThroughputVLIW(b *testing.B) {
	c := compileThroughputLoop(b)
	vp, err := c.VLIW()
	if err != nil {
		b.Fatal(err)
	}
	benchThroughputRuns(b, func() (uint64, error) {
		m, err := ximd.NewVLIWMachine(vp, ximd.VLIWConfig{})
		if err != nil {
			return 0, err
		}
		return m.Run()
	})
}
