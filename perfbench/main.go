// Command perfbench is the repository benchmark. It drives the real
// ximdd and ximdc binaries over loopback with closed-loop clients,
// checks every result against an in-process oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) of one
// workload. perfbench/run.sh builds the binaries and runs it; see
// perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ximd/internal/serve"
)

// workload is one traffic mix against one daemon topology.
type workload struct {
	name    string
	topo    topology
	clients int
	// tailPct is the fixed tail percentile reported as latency_tail_ms:
	// a run leaves at least ten samples beyond it, and it is the highest
	// such percentile that stays inside the bound between runs (see
	// README.md).
	tailPct float64
}

var workloadList = []workload{
	{name: "svc-small", topo: volatileNode, clients: 2, tailPct: 95},
	{name: "svc-long", topo: durableNode, clients: 2, tailPct: 75},
	{name: "fleet-sweep", topo: fleet, clients: 1, tailPct: 90},
}

const (
	// setupReps is how many times a run starts its daemons; setup_s is
	// the median.
	setupReps = 5
	// warmup lets the decoded-program cache fill and lazy set-up finish
	// before the measured window.
	warmup = time.Second
	// rssCapMB stops a run whose daemons together grow past this
	// resident size, so a memory defect fails the run instead of the
	// host.
	rssCapMB = 4500
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string
	work     string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: svc-small, svc-long or fleet-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (program variants, fault seeds, mix order)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built ximdd and ximdc")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "working directory for daemon state")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want svc-small, svc-long or fleet-sweep)", name)
}

// bench is one run in progress.
type bench struct {
	cfg   config
	wl    workload
	dir   string
	orc   *oracle
	pool  []*request // svc workloads
	fleet *fleetRun  // fleet-sweep
	next  func(id int) *request
	cl    *cluster
	// capHit is set by the RSS watchdog.
	capHit atomic.Bool

	phases    []*phase
	attempted int
	failed    int
	errs      []string
}

func run(cfg config) error {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	b := &bench{cfg: cfg, wl: wl, orc: newOracle()}
	b.dir, err = filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", wl.name, cfg.seed, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	if err := b.generate(); err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		c, d, err := startCluster(cfg.bin, wl.topo, filepath.Join(b.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			c.stop()
		} else {
			b.cl = c
		}
	}
	defer b.cl.stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopWatch := b.watchRSS(ctx, cancel)
	defer stopWatch()

	b.phase(ctx, warmup, false)
	var rep report
	var lines []string
	if cfg.trace == 0 {
		p := b.phase(ctx, time.Duration(cfg.seconds)*time.Second, false)
		if err := b.finishPhases(); err != nil {
			return err
		}
		rep.Metrics, lines = b.endToEnd(p, setups)
	} else {
		rep.Metrics, lines, err = b.traced(ctx)
		if err != nil {
			return err
		}
	}
	if b.capHit.Load() {
		return fmt.Errorf("daemon resident memory passed the %d MB safety cap; run stopped", rssCapMB)
	}
	rep.Attempted, rep.Failed = b.attempted, b.failed
	rep.Correct = rep.Failed == 0
	if rep.Attempted == 0 {
		return fmt.Errorf("no request completed")
	}

	fmt.Printf("perfbench %s seed %d: %d closed-loop client(s), %ds measured, trace=%d\n",
		wl.name, cfg.seed, wl.clients, cfg.seconds, cfg.trace)
	if len(b.pool) > 0 {
		fmt.Printf("  %-28s %d distinct requests\n", "request pool", len(b.pool))
	}
	for _, l := range lines {
		fmt.Println("  " + l)
	}
	fmt.Printf("  %-28s %.6g (%d failed of %d attempted)\n", "error_rate", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	for _, e := range b.errs {
		fmt.Println("  error: " + e)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// generate builds the workload's inputs from the seed and computes the
// oracle for every svc job up front, so checking a result inside the
// measured window is a lookup.
func (b *bench) generate() error {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var err error
	switch b.wl.name {
	case "svc-small":
		b.pool, err = smallPool(rng)
	case "svc-long":
		b.pool, err = longPool(rng)
	case "fleet-sweep":
		b.fleet = &fleetRun{rng: rand.New(rand.NewSource(rng.Int63()))}
		n := (b.cfg.seconds + int(warmup/time.Second) + 1) * sweepsPerSecond
		for i := 0; i < n; i++ {
			fp, err := newFleetProgram(rng)
			if err != nil {
				return err
			}
			b.fleet.stock = append(b.fleet.stock, fp)
		}
		return nil
	}
	if err != nil {
		return err
	}
	var jobs []serve.JobRequest
	for _, r := range b.pool {
		jobs = append(jobs, r.job)
	}
	if err := b.orc.prepare(jobs, 2); err != nil {
		return err
	}
	// Each client draws its requests from its own seeded stream:
	// svc-small uniformly from the pool, svc-long in shuffled rounds of
	// the whole pool so every kind recurs at a fixed rate.
	rngs := make([]*rand.Rand, b.wl.clients)
	orders := make([][]int, b.wl.clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	b.next = func(id int) *request {
		if b.wl.name == "svc-small" {
			return b.pool[rngs[id].Intn(len(b.pool))]
		}
		if len(orders[id]) == 0 {
			orders[id] = rngs[id].Perm(len(b.pool))
		}
		r := b.pool[orders[id][0]]
		orders[id] = orders[id][1:]
		return r
	}
	return nil
}

// phase runs the workload's clients for d.
func (b *bench) phase(ctx context.Context, d time.Duration, traced bool) *phase {
	deadline := time.Now().Add(d)
	var p *phase
	if b.fleet != nil {
		b.fleet.front = b.cl.front
		p = runClients(ctx, b.wl.clients, deadline, b.fleet.loop(traced))
	} else {
		p = runClients(ctx, b.wl.clients, deadline, svcLoop(b.cl.front, b.orc, traced, b.next))
	}
	b.phases = append(b.phases, p)
	return p
}

// finishPhases verifies fleet results (svc results are checked as they
// arrive) and totals the attempted and failed counts of every phase
// run so far, warm-up included.
func (b *bench) finishPhases() error {
	if b.fleet != nil {
		if err := verifyFleet(b.orc, b.fleet.responses, b.phases...); err != nil {
			return err
		}
	}
	b.attempted, b.failed, b.errs = 0, 0, nil
	for _, p := range b.phases {
		a, f, e := p.counts()
		b.attempted += a
		b.failed += f
		b.errs = append(b.errs, e...)
	}
	if len(b.errs) > 5 {
		b.errs = b.errs[:5]
	}
	return nil
}

// endToEnd computes the end-to-end metrics of one measured phase.
func (b *bench) endToEnd(p *phase, setups []float64) (map[string]metric, []string) {
	jobsPerS, cyclesPerS := p.rates()
	lat := p.latenciesMS()
	t := tailAt(lat, b.wl.tailPct)
	m := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"jobs_per_s":        {jobsPerS, "1/s"},
		"latency_p50_ms":    {median(lat), "ms"},
		"latency_tail_ms":   {t.value, "ms"},
		"sim_mcycles_per_s": {cyclesPerS / 1e6, "Mcycles/s"},
		"peak_rss_mb":       {b.cl.statusMB("VmHWM"), "MB"},
	}
	lines := metricLines(m)
	lines = append(lines, fmt.Sprintf("%-28s p%g of %d requests, %d samples beyond it", "latency_tail_ms is", t.pct, t.n, t.beyond))
	lines = append(lines, fmt.Sprintf("%-28s p90 %.4g, p95 %.4g, p99 %.4g, p99.9 %.4g ms", "latency percentiles",
		tailAt(lat, 90).value, tailAt(lat, 95).value, tailAt(lat, 99).value, tailAt(lat, 99.9).value))
	kinds := map[string][]float64{}
	for _, s := range p.samples() {
		kinds[s.kind] = append(kinds[s.kind], ms(s.latency))
	}
	for _, k := range sortedKeys(kinds) {
		lines = append(lines, fmt.Sprintf("%-28s p50 %.4g ms over %d", "  kind "+k, median(kinds[k]), len(kinds[k])))
	}
	if t.beyond < 10 {
		lines = append(lines, "warning: fewer than ten samples lie beyond the tail percentile")
	}
	return m, lines
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func metricLines(m map[string]metric) []string {
	var lines []string
	for _, k := range sortedKeys(m) {
		lines = append(lines, fmt.Sprintf("%-28s %.6g %s", k, m[k].Value, m[k].Unit))
	}
	return lines
}

// watchRSS samples the daemons' resident memory every 100ms and stops
// the run if it passes rssCapMB. The returned func stops the watcher
// and waits for it.
func (b *bench) watchRSS(ctx context.Context, cancel context.CancelFunc) func() {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if b.cl.statusMB("VmRSS") > rssCapMB {
					b.capHit.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}
