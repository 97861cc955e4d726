package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ximd/internal/compiler"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/runner"
	"ximd/internal/serve"
	"ximd/internal/workloads"
)

// request is one generated job: the body the daemons receive and the
// (program, spec) the in-process oracle re-runs.
type request struct {
	kind string
	job  serve.JobRequest
	body []byte
}

func newRequest(kind string, job serve.JobRequest) *request {
	return &request{kind: kind, job: job, body: encodeJSON(job)}
}

// program returns the job's architecture and program bytes.
func (r *request) program() (runner.Arch, []byte) {
	arch := runner.Arch(r.job.Arch)
	if arch == "" {
		arch = runner.ArchXIMD
	}
	if r.job.Source != "" {
		return arch, []byte(r.job.Source)
	}
	return arch, r.job.Image
}

// encodeJSON marshals v the way the daemons write JSON (no HTML
// escaping, no trailing newline), so result documents compare
// byte for byte.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: encode %T: %v", v, err))
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func readTestdata(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		return "", fmt.Errorf("read program: %w", err)
	}
	return string(b), nil
}

func image(p *isa.Program) []byte {
	var buf bytes.Buffer
	if err := isa.WriteProgram(&buf, p); err != nil {
		panic(fmt.Sprintf("perfbench: encode program image: %v", err))
	}
	return buf.Bytes()
}

// kernelJobs turns a paper workload instance into image jobs for each
// architecture it exists in: register pokes from Instance.Regs, memory
// pokes from the non-zero words of its environment's memory image.
func kernelJobs(inst *workloads.Instance) []serve.JobRequest {
	var pokes []string
	for r := 0; r < 256; r++ {
		if v, ok := inst.Regs[uint8(r)]; ok {
			pokes = append(pokes, fmt.Sprintf("r%d=%d", r, int32(v)))
		}
	}
	var memPokes []string
	if sh, ok := inst.NewEnv().Mem.(*mem.Shared); ok && !sh.HasMappings() {
		raw := sh.Raw()
		for i := 0; i < len(raw); {
			if raw[i] == 0 {
				i++
				continue
			}
			j := i
			var vals []string
			for j < len(raw) && raw[j] != 0 {
				vals = append(vals, strconv.Itoa(int(int32(raw[j]))))
				j++
			}
			memPokes = append(memPokes, fmt.Sprintf("%d=%s", i, strings.Join(vals, ",")))
			i = j
		}
	}
	var jobs []serve.JobRequest
	if inst.XIMD != nil {
		jobs = append(jobs, serve.JobRequest{Arch: string(runner.ArchXIMD), Image: image(inst.XIMD), Pokes: pokes, Mem: memPokes})
	}
	if inst.VLIW != nil {
		jobs = append(jobs, serve.JobRequest{Arch: string(runner.ArchVLIW), Image: image(inst.VLIW.ToXIMD()), Pokes: pokes, Mem: memPokes})
	}
	return jobs
}

func randInts(rng *rand.Rand, n, lo, hi int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(lo + rng.Intn(hi-lo+1))
	}
	return out
}

// smallPool is svc-small's request pool: TPROC on XIMD and VLIW,
// countdown.xasm, and internal/workloads kernels sent as binary
// images, some under fault injection. Every job runs a few to a few
// thousand cycles; the pool holds few programs, so the daemon's
// decoded-program cache hits after the first round.
func smallPool(rng *rand.Rand) ([]*request, error) {
	tproc, err := readTestdata("tproc.xasm")
	if err != nil {
		return nil, err
	}
	countdown, err := readTestdata("countdown.xasm")
	if err != nil {
		return nil, err
	}
	var pool []*request
	for i := 0; i < 3; i++ {
		pokes := []string{}
		for r := 1; r <= 4; r++ {
			pokes = append(pokes, fmt.Sprintf("r%d=%d", r, rng.Intn(2001)-1000))
		}
		for _, arch := range []runner.Arch{runner.ArchXIMD, runner.ArchVLIW} {
			pool = append(pool, newRequest("tproc-"+string(arch), serve.JobRequest{Arch: string(arch), Source: tproc, Pokes: pokes}))
		}
	}
	pool = append(pool, newRequest("countdown", serve.JobRequest{Source: countdown, Peeks: []string{"300:2"}}))
	for i := 0; i < 2; i++ {
		pool = append(pool, newRequest("countdown-inject", serve.JobRequest{
			Source: countdown, Peeks: []string{"300:2"}, Seed: rng.Int63n(1 << 30), Inject: "lat=uniform:0:2",
		}))
	}
	kernels := []*workloads.Instance{
		workloads.MinMax(randInts(rng, 128, -50000, 50000)),
		workloads.MinMax(randInts(rng, 64, -50000, 50000)),
		workloads.Bitcount(randInts(rng, 32, -1<<30, 1<<30)),
		workloads.LL12(randInts(rng, 129, -900, 900)),
	}
	for _, inst := range kernels {
		for _, job := range kernelJobs(inst) {
			pool = append(pool, newRequest(inst.Name+"-"+job.Arch, job))
			// LL12's stream synchronization assumes fixed load latency; under
			// injected latency some seeds never finish, so it runs clean.
			if job.Arch == string(runner.ArchXIMD) && inst.Name != "ll12" {
				inj := job
				inj.Seed, inj.Inject = rng.Int63n(1<<30), "lat=uniform:0:3"
				pool = append(pool, newRequest(inst.Name+"-inject", inj))
			}
		}
	}
	return pool, nil
}

// throughputLoop is the minic loop of BenchmarkSimulatorThroughput
// (compiled Width 8, Unroll 4) with a variable trip count.
func throughputLoop(trips int) string {
	return fmt.Sprintf(`
var out[1];
func main() {
    var i, s = 0;
    for (i = 0; i < %d; i = i + 1) { s = s + i * 3 - (i >> 1); }
    out[0] = s;
}`, trips)
}

// compileImage compiles minic source and returns the program image,
// converted to a VLIW program first when arch is VLIW, plus the peek
// spec of the global out.
func compileImage(src string, opts compiler.Options, arch runner.Arch) ([]byte, []string, error) {
	c, err := compiler.Compile(src, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	prog := c.Prog
	if arch == runner.ArchVLIW {
		v, err := c.VLIW()
		if err != nil {
			return nil, nil, err
		}
		prog = v.ToXIMD()
	}
	var peeks []string
	for _, s := range c.Syms.Syms {
		if s.Name == "out" {
			peeks = append(peeks, fmt.Sprintf("%d:%d", s.Addr, s.Size))
		}
	}
	return image(prog), peeks, nil
}

// arrayKernel is a memory-bound minic kernel; its loads make injected
// memory latency matter. Compiled for one FU it tolerates injected
// latency: wider static schedules assume fixed load latency and end in
// register write conflicts when a load is late.
func arrayKernel(trips, k0, k1, k2, k3 int) string {
	return fmt.Sprintf(`
var a[64], out[1];
func main() {
    var i, s = %d;
    for (i = 0; i < %d; i = i + 1) {
        a[i & 63] = a[i & 63] + i * %d - %d;
        s = s + a[(i * %d) & 63];
    }
    out[0] = s;
}`, k0, trips, k1, k2, k3)
}

// longPool is svc-long's request pool: two variants each of
// longloop.xasm on XIMD, the wide minic throughput loop on VLIW, and an
// XIMD memory kernel under lat=uniform injection (which forces the
// unfused per-cycle path). Jobs run about half a second each, millions
// of cycles; the uninjected ones just pass the daemon's default
// checkpoint interval (1<<23 cycles), so each writes one checkpoint.
func longPool(rng *rand.Rand) ([]*request, error) {
	longloop, err := readTestdata("longloop.xasm")
	if err != nil {
		return nil, err
	}
	if !strings.Contains(longloop, "#3163") {
		return nil, fmt.Errorf("testdata/longloop.xasm: loop bound #3163 not found")
	}
	var pool []*request
	for i := 0; i < 2; i++ {
		// Seeds vary the bound, and so the program digest and result, by
		// under 1% of the work, keeping each run's load the same size.
		bound := 1750 + rng.Intn(10)
		src := strings.Replace(longloop, "#3163", "#"+strconv.Itoa(bound), 1)
		pool = append(pool, newRequest("longloop-ximd", serve.JobRequest{Source: src, Peeks: []string{"300:1"}}))
	}
	for i := 0; i < 2; i++ {
		img, peeks, err := compileImage(throughputLoop(2_850_000+rng.Intn(10_000)), compiler.Options{Width: 8, Unroll: 4}, runner.ArchVLIW)
		if err != nil {
			return nil, err
		}
		pool = append(pool, newRequest("minic-loop-vliw", serve.JobRequest{Arch: string(runner.ArchVLIW), Image: img, Peeks: peeks}))
	}
	for i := 0; i < 2; i++ {
		src := arrayKernel(190_000+rng.Intn(1000), rng.Intn(100), 1+rng.Intn(9), rng.Intn(50), 1+2*rng.Intn(16))
		img, peeks, err := compileImage(src, compiler.Options{Width: 1, Unroll: 2}, runner.ArchXIMD)
		if err != nil {
			return nil, err
		}
		pool = append(pool, newRequest("array-ximd-lat-uniform", serve.JobRequest{
			Image: img, Peeks: peeks, Seed: rng.Int63n(1 << 30), Inject: "lat=uniform:1:4",
		}))
	}
	return pool, nil
}

// sweepsPerSecond sizes fleet-sweep's pre-generated program stock; a
// run that outpaces it compiles more on demand.
const sweepsPerSecond = 40

// fleetProgram is one freshly generated fleet-sweep base job: a memory
// kernel with seeded constants (its size held nearly fixed, so seeds
// change content, not load), under latency injection so every seed
// variant differs, plus the 16 variant seeds.
type fleetProgram struct {
	base  serve.JobRequest
	seeds []int64
}

func newFleetProgram(rng *rand.Rand) (*fleetProgram, error) {
	src := arrayKernel(200+rng.Intn(3), rng.Intn(1000), 1+rng.Intn(9), rng.Intn(50), 1+2*rng.Intn(16))
	img, peeks, err := compileImage(src, compiler.Options{Width: 1, Unroll: 2}, runner.ArchXIMD)
	if err != nil {
		return nil, err
	}
	fp := &fleetProgram{base: serve.JobRequest{Image: img, Peeks: peeks, Inject: "lat=uniform:0:3"}}
	first := rng.Int63n(1 << 30)
	for i := int64(0); i < 16; i++ {
		fp.seeds = append(fp.seeds, first+i)
	}
	return fp, nil
}

// variant is the single job one sweep seed expands to.
func (fp *fleetProgram) variant(seed int64) serve.JobRequest {
	j := fp.base
	j.Seed = seed
	return j
}
