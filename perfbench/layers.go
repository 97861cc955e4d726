package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"ximd/internal/archive"
	"ximd/internal/asm"
	"ximd/internal/ckpt"
	"ximd/internal/compiler"
	"ximd/internal/core"
	"ximd/internal/fabric"
	"ximd/internal/inject"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/obs"
	"ximd/internal/runner"
	"ximd/internal/serve"
	"ximd/internal/vliw"
)

// traced is the --trace 1 run: half the window untraced, half traced
// (per-request RTTs, span and trace fetches, /metrics deltas), then
// in-process probes that time each layer's public functions on the
// workload's own inputs. It returns the per-layer metrics.
func (b *bench) traced(ctx context.Context) (map[string]metric, []string, error) {
	half := time.Duration(b.cfg.seconds) * time.Second / 2
	if half < 500*time.Millisecond {
		half = 500 * time.Millisecond
	}
	u := b.phase(ctx, half, false)

	var workerGets []getter
	for _, w := range b.cl.workers {
		workerGets = append(workerGets, httpGetter(w.url()))
	}
	frontGet := httpGetter(b.cl.front)
	wBefore, err := scrapeAll(workerGets)
	if err != nil {
		return nil, nil, err
	}
	fBefore, err := scrape(frontGet)
	if err != nil {
		return nil, nil, err
	}
	t := b.phase(ctx, half, true)
	wAfter, err := scrapeAll(workerGets)
	if err != nil {
		return nil, nil, err
	}
	fAfter, err := scrape(frontGet)
	if err != nil {
		return nil, nil, err
	}
	if err := b.finishPhases(); err != nil {
		return nil, nil, err
	}

	m := map[string]metric{}
	var notes []string
	b.clientLayer(m, &notes, t)
	b.serveLive(m, wBefore, wAfter)
	if err := b.probes(m, &notes); err != nil {
		return nil, nil, err
	}
	if b.fleet != nil {
		fabricFromMetrics(m, fBefore, fAfter)
		var over, regress []float64
		for _, s := range t.samples() {
			over = append(over, s.overheads...)
			if s.kind == "regress" {
				regress = append(regress, s.daemonMS)
			}
		}
		m["fabric.placement_overhead_ms"] = metric{median(over), "ms"}
		m["fabric.regress_ms"] = metric{median(regress), "ms"}
		notes = append(notes, "fabric.* read from the live ximdc (/metrics deltas and /v1/traces trees)")
	} else {
		if err := b.fabricProbe(m); err != nil {
			return nil, nil, fmt.Errorf("fabric probe: %w", err)
		}
		notes = append(notes, "fabric.* from an in-process coordinator over the live ximdd (4 sweeps + 2 regress)")
	}
	pu, pt := median(u.latenciesMS()), median(t.latenciesMS())
	m["bench.trace_overhead_pct"] = metric{100 * (pt - pu) / pu, "%"}

	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	ju, _ := u.rates()
	jt, _ := t.rates()
	lines := []string{
		fmt.Sprintf("%-28s untraced %.6g ms, traced %.6g ms", "latency_p50_ms", pu, pt),
		fmt.Sprintf("%-28s untraced %.6g 1/s, traced %.6g 1/s", "jobs_per_s", ju, jt),
	}
	lines = append(lines, metricLines(m)...)
	lines = append(lines, notes...)
	return m, lines, nil
}

// clientLayer derives the client.* metrics from the traced phase and,
// for svc workloads, prints the ledger: each layer's share of the
// client's end-to-end time.
func (b *bench) clientLayer(m map[string]metric, notes *[]string, t *phase) {
	var submit, poll, unattr []float64
	polls := 0
	samples := t.samples()
	for _, s := range samples {
		submit = append(submit, ms(s.submitRTT))
		for _, d := range s.pollRTT {
			poll = append(poll, ms(d))
		}
		polls += s.polls
		unattr = append(unattr, ms(s.latency)-s.daemonMS)
	}
	m["client.submit_rtt_ms"] = metric{median(submit), "ms"}
	m["client.poll_rtt_ms"] = metric{median(poll), "ms"}
	m["client.polls_per_job"] = metric{float64(polls) / float64(len(samples)), "count"}
	m["client.unattributed_ms"] = metric{median(unattr), "ms"}
	if b.fleet != nil || len(samples) == 0 {
		return
	}
	var lat, dec, qw, ex, fin, rest float64
	for _, s := range samples {
		l := ms(s.latency)
		lat += l
		dec += s.spans["decode"]
		qw += s.spans["queue_wait"]
		ex += s.spans["execute"]
		fin += s.spans["total"] - s.spans["queue_wait"] - s.spans["execute"]
		rest += l - s.spans["total"] - s.spans["decode"]
	}
	share := func(x float64) string { return fmt.Sprintf("%5.1f%%", 100*x/lat) }
	n := float64(len(samples))
	*notes = append(*notes,
		fmt.Sprintf("ledger: mean client latency %.4g ms over %d jobs", lat/n, len(samples)),
		fmt.Sprintf("ledger:   serve.decode (cache lookup at submit)        %s", share(dec)),
		fmt.Sprintf("ledger:   serve.queue_wait                             %s", share(qw)),
		fmt.Sprintf("ledger:   serve.execute (runner build+run)             %s", share(ex)),
		fmt.Sprintf("ledger:   serve.finish (encode, archive, journal)      %s", share(fin)),
		fmt.Sprintf("ledger:   no span: HTTP, response encode, poll gaps    %s", share(rest)),
		fmt.Sprintf("ledger:   client.unattributed_ms (median, incl. decode) %.4g ms", m["client.unattributed_ms"].Value),
	)
}

// serveLive reads the serve.* figures the ximdd daemons expose, as
// deltas over the traced phase.
func (b *bench) serveLive(m map[string]metric, before, after metricsSnap) {
	m["serve.queue_wait_ms"] = metric{histMeanMS(before, after, "ximdd_job_queue_wait_seconds"), "ms"}
	m["serve.execute_ms"] = metric{histMeanMS(before, after, "ximdd_job_execute_seconds"), "ms"}
	m["serve.job_total_ms"] = metric{histMeanMS(before, after, "ximdd_job_total_seconds"), "ms"}
	m["serve.rejected"] = metric{delta(before, after, "ximdd_rejected_queue_full_total") +
		delta(before, after, "ximdd_rejected_shutting_down_total"), "count"}
	hits := delta(before, after, "ximdd_cache_hits_total")
	misses := delta(before, after, "ximdd_cache_misses_total")
	m["serve.decode_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	m["serve.checkpoint_writes_per_job"] = metric{delta(before, after, "ximdd_checkpoint_writes_total") /
		delta(before, after, "ximdd_jobs_done_total"), "count"}
	if delta(before, after, "ximdd_archive_append_seconds_count") > 0 {
		m["serve.archive_append_ms"] = metric{histMeanMS(before, after, "ximdd_archive_append_seconds"), "ms"}
	}
	if delta(before, after, "ximdd_checkpoint_save_seconds_count") > 0 {
		m["serve.checkpoint_save_ms"] = metric{histMeanMS(before, after, "ximdd_checkpoint_save_seconds"), "ms"}
	}
}

// fabricFromMetrics reads the fabric.* counters a coordinator exposes,
// as deltas between two scrapes.
func fabricFromMetrics(m map[string]metric, before, after metricsSnap) {
	m["fabric.affinity_hit_ratio"] = metric{delta(before, after, "ximdc_affinity_hits_total") /
		delta(before, after, "ximdc_jobs_routed_total"), "ratio"}
	m["fabric.polls_per_job"] = metric{delta(before, after, "ximdc_poll_seconds_count") /
		delta(before, after, "ximdc_jobs_done_total"), "count"}
	m["fabric.poll_rtt_ms"] = metric{histMeanMS(before, after, "ximdc_poll_seconds"), "ms"}
	m["fabric.requeued"] = metric{delta(before, after, "ximdc_jobs_requeued_total"), "count"}
	m["fabric.stolen"] = metric{delta(before, after, "ximdc_jobs_stolen_total"), "count"}
}

// probeJobs is the workload's own jobs for the in-process probes: the
// svc pool, or the variants of the first fleet programs swept.
func (b *bench) probeJobs() []serve.JobRequest {
	var jobs []serve.JobRequest
	if b.fleet == nil {
		for _, r := range b.pool {
			jobs = append(jobs, r.job)
		}
		return jobs
	}
	for _, fp := range b.fleet.done {
		for _, seed := range fp.seeds {
			jobs = append(jobs, fp.variant(seed))
		}
		if len(jobs) >= 32 {
			break
		}
	}
	return jobs
}

// sink keeps probe results reachable so the compiler cannot drop the
// measured calls.
var sink any

// probes times each layer's public functions in this process.
func (b *bench) probes(m map[string]metric, notes *[]string) error {
	jobs := b.probeJobs()
	if len(jobs) == 0 {
		return fmt.Errorf("no jobs completed to probe")
	}
	if err := probeRunner(m, jobs); err != nil {
		return err
	}
	probeMem(m)
	if err := probeEngines(m); err != nil {
		return err
	}
	saveMS, err := b.probeCkpt(m, jobs)
	if err != nil {
		return err
	}
	if err := b.probeArchive(m, jobs); err != nil {
		return err
	}
	durable := b.wl.topo == durableNode
	sub, stat, appendMS, err := b.probeServe(jobs, durable, "serve-probe")
	if err != nil {
		return err
	}
	m["serve.submit_handler_ms"] = metric{median(sub), "ms"}
	m["serve.status_handler_ms"] = metric{median(stat), "ms"}
	if _, ok := m["serve.archive_append_ms"]; !ok {
		if !durable {
			if _, _, appendMS, err = b.probeServe(jobs, true, "serve-probe-durable"); err != nil {
				return err
			}
		}
		m["serve.archive_append_ms"] = metric{appendMS, "ms"}
		*notes = append(*notes, "serve.archive_append_ms from an in-process durable serve.Server (the workload's daemons do not archive)")
	}
	if _, ok := m["serve.checkpoint_save_ms"]; !ok {
		m["serve.checkpoint_save_ms"] = metric{saveMS, "ms"}
		*notes = append(*notes, "serve.checkpoint_save_ms from ckpt.Store.Save in process (the workload's daemons write no checkpoints)")
	}
	return nil
}

// probeRunner times runner.Load, runner.Run (its build and run phase
// spans, through Options.Span) and result encoding, and counts the
// allocations of a run, cycling through jobs for about two seconds.
func probeRunner(m map[string]metric, jobs []serve.JobRequest) error {
	store := obs.NewSpanStore(0)
	tr := obs.NewTracer("perfbench", store)
	var load, build, run, enc []float64
	var allocBytes, allocs, runs float64
	end := time.Now().Add(2 * time.Second)
	for i := 0; i < 400 && (i < len(jobs) || time.Now().Before(end)); i++ {
		job := jobs[i%len(jobs)]
		arch, src := (&request{job: job}).program()
		t0 := time.Now()
		prog, err := runner.Load(arch, src)
		load = append(load, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("probe load: %w", err)
		}
		spec, peeks, err := jobSpec(job)
		if err != nil {
			return err
		}
		root := tr.Root("probe")
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		res, err := runner.Run(context.Background(), prog, spec, runner.Options{Span: root})
		runtime.ReadMemStats(&ms1)
		root.Finish()
		if err != nil {
			return fmt.Errorf("probe run: %w", err)
		}
		allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		allocs += float64(ms1.Mallocs - ms0.Mallocs)
		runs++
		for _, sp := range store.Trace(root.Context().TraceID) {
			switch sp.Name {
			case "build":
				build = append(build, sp.Ms)
			case "run":
				run = append(run, sp.Ms)
			}
		}
		t1 := time.Now()
		sink = encodeJSON(runner.NewResultDoc(res, peeks, job.Profile))
		enc = append(enc, ms(time.Since(t1)))
	}
	m["runner.load_ms"] = metric{median(load), "ms"}
	m["runner.build_ms"] = metric{median(build), "ms"}
	m["runner.run_ms"] = metric{median(run), "ms"}
	m["runner.encode_ms"] = metric{median(enc), "ms"}
	m["runner.alloc_bytes_per_run"] = metric{allocBytes / runs, "B"}
	m["runner.allocs_per_run"] = metric{allocs / runs, "count"}
	return nil
}

// probeMem times mem.NewShared of the default 4 MB image.
func probeMem(m map[string]metric) {
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		sink = mem.NewShared(0)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	m["mem.new_shared_us"] = metric{median(us), "us"}
}

// probeEngines measures host-ns per machine-cycle on the minic loop of
// BenchmarkSimulatorThroughput (Width 8, Unroll 4): fused and unfused
// on the XIMD core, and on the VLIW engine. The loop is the same for
// every workload, so the series continues BENCH_pr7/BENCH_pr9.
func probeEngines(m map[string]metric) error {
	c, err := compiler.Compile(throughputLoop(100000), compiler.Options{Width: 8, Unroll: 4})
	if err != nil {
		return err
	}
	vp, err := c.VLIW()
	if err != nil {
		return err
	}
	nsPerCycle := func(newRun func() (uint64, error)) (float64, error) {
		var xs []float64
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			cycles, err := newRun()
			if err != nil {
				return 0, err
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(cycles))
		}
		return median(xs), nil
	}
	coreRun := func(disable bool) func() (uint64, error) {
		return func() (uint64, error) {
			mc, err := core.New(c.Prog, core.Config{Engine: core.EngineFast, DisableFusion: disable})
			if err != nil {
				return 0, err
			}
			return mc.Run()
		}
	}
	fused, err := nsPerCycle(coreRun(false))
	if err != nil {
		return err
	}
	unfused, err := nsPerCycle(coreRun(true))
	if err != nil {
		return err
	}
	vl, err := nsPerCycle(func() (uint64, error) {
		mc, err := vliw.New(vp, vliw.Config{})
		if err != nil {
			return 0, err
		}
		return mc.Run()
	})
	if err != nil {
		return err
	}
	prog, err := runner.Load(runner.ArchXIMD, image(c.Prog))
	if err != nil {
		return err
	}
	m["core.host_ns_per_cycle"] = metric{fused, "ns"}
	m["core.host_ns_per_cycle_unfused"] = metric{unfused, "ns"}
	m["core.fusible_word_share"] = metric{float64(prog.FusibleWords()) / float64(len(c.Prog.Instrs)), "ratio"}
	m["vliw.host_ns_per_cycle"] = metric{vl, "ns"}
	return nil
}

// probeCkpt times the machine Snapshot of each job's program half-way
// through its run, the encoded checkpoint size, and ckpt.Store.Save of
// that checkpoint (the daemon's save path). It returns the median save
// time in ms.
func (b *bench) probeCkpt(m map[string]metric, jobs []serve.JobRequest) (float64, error) {
	store, err := ckpt.OpenStore(filepath.Join(b.dir, "ckpt-probe"))
	if err != nil {
		return 0, err
	}
	defer store.Close()
	var snapMS, bytesPer, saveMS []float64
	for i, job := range jobs {
		if i == 8 {
			break
		}
		e, err := b.orc.expect(job)
		if err != nil {
			return 0, err
		}
		half := e.cycles / 2
		arch, src := (&request{job: job}).program()
		var prog *isa.Program
		if job.Source != "" {
			prog, err = asm.Assemble(job.Source)
		} else {
			prog, err = isa.ReadProgram(bytes.NewReader(src))
		}
		if err != nil {
			return 0, err
		}
		var snap func() (*ckpt.Checkpoint, error)
		if arch == runner.ArchVLIW {
			vp, err := vliw.FromXIMD(prog)
			if err != nil {
				return 0, err
			}
			mc, err := vliw.New(vp, vliw.Config{Memory: mem.NewShared(0)})
			if err != nil {
				return 0, err
			}
			if _, err := mc.StepN(half); err != nil {
				return 0, err
			}
			snap = func() (*ckpt.Checkpoint, error) {
				s, err := mc.Snapshot()
				return &ckpt.Checkpoint{Arch: string(arch), Cycle: mc.Cycle(), Vliw: s}, err
			}
		} else {
			mc, err := core.New(prog, core.Config{Memory: mem.NewShared(0)})
			if err != nil {
				return 0, err
			}
			if _, err := mc.StepN(half); err != nil {
				return 0, err
			}
			snap = func() (*ckpt.Checkpoint, error) {
				s, err := mc.Snapshot()
				return &ckpt.Checkpoint{Arch: string(arch), Cycle: mc.Cycle(), Ximd: s}, err
			}
		}
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			c, err := snap()
			snapMS = append(snapMS, ms(time.Since(t0)))
			if err != nil {
				return 0, err
			}
			enc, err := c.Encode()
			if err != nil {
				return 0, err
			}
			bytesPer = append(bytesPer, float64(len(enc)))
			t1 := time.Now()
			if _, err := store.Save(fmt.Sprintf("probe-%d", i), c); err != nil {
				return 0, err
			}
			saveMS = append(saveMS, ms(time.Since(t1)))
		}
	}
	m["ckpt.snapshot_ms"] = metric{median(snapMS), "ms"}
	m["ckpt.bytes_per_save"] = metric{median(bytesPer), "B"}
	return median(saveMS), nil
}

// probeArchive times archive.Append (frame write + fsync) of the
// workload's result documents and archive.Select by program digest.
func (b *bench) probeArchive(m map[string]metric, jobs []serve.JobRequest) error {
	a, err := archive.Open(filepath.Join(b.dir, "archive-probe"))
	if err != nil {
		return err
	}
	defer a.Close()
	var appendMS, selectMS []float64
	var digests []string
	for i := 0; i < 64; i++ {
		job := jobs[i%len(jobs)]
		e, err := b.orc.expect(job)
		if err != nil {
			return err
		}
		var doc runner.ResultDoc
		if err := json.Unmarshal(e.doc, &doc); err != nil {
			return err
		}
		canon, err := inject.Canonicalize(job.Inject)
		if err != nil {
			return err
		}
		arch, src := (&request{job: job}).program()
		digest := archive.ProgramDigest(arch, src)
		digests = append(digests, digest)
		rec := archive.Record{
			Key:    archive.Key{ProgramSHA256: digest, Arch: string(arch), Seed: job.Seed + int64(i), Inject: canon},
			Result: &doc,
		}
		t0 := time.Now()
		if err := a.Append(rec); err != nil {
			return err
		}
		appendMS = append(appendMS, ms(time.Since(t0)))
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		sink = a.Select(archive.Query{ProgramSHA256: digests[i%len(digests)]})
		selectMS = append(selectMS, ms(time.Since(t0)))
	}
	m["archive.append_ms"] = metric{median(appendMS), "ms"}
	m["archive.select_ms"] = metric{median(selectMS), "ms"}
	return nil
}

// probeServe drives an in-process serve.Server through
// Handler().ServeHTTP: submits of the workload's jobs in batches, each
// batch left to finish (up to 2s), then timed status reads. durable
// mirrors `ximdd -archive`. It returns the submit and status handler
// times and the server's own mean archive-append time.
func (b *bench) probeServe(jobs []serve.JobRequest, durable bool, name string) (submit, status []float64, appendMS float64, err error) {
	opts := serve.Options{}
	var a *archive.Archive
	if durable {
		dir := filepath.Join(b.dir, name)
		if a, err = archive.Open(dir); err != nil {
			return nil, nil, 0, err
		}
		defer a.Close()
		opts.Archive, opts.StateDir = a, dir
	}
	srv := serve.New(opts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	do := func(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	end := time.Now().Add(3 * time.Second)
	for batch := 0; batch < 8 && time.Now().Before(end); batch++ {
		var ids []string
		for i := 0; i < 16; i++ {
			job := jobs[(batch*16+i)%len(jobs)]
			rec, d := do(http.MethodPost, "/v1/jobs", encodeJSON(job))
			if rec.Code != http.StatusAccepted {
				return nil, nil, 0, fmt.Errorf("probe submit: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			submit = append(submit, ms(d))
			var sr serve.SubmitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				return nil, nil, 0, err
			}
			ids = append(ids, sr.ID)
		}
		wait := time.Now().Add(2 * time.Second)
		for _, id := range ids {
			for time.Now().Before(wait) {
				rec, _ := do(http.MethodGet, "/v1/jobs/"+id, nil)
				var st jobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					return nil, nil, 0, err
				}
				if st.Status == serve.StateDone || st.Status == serve.StateFailed {
					break
				}
				time.Sleep(200 * time.Microsecond)
			}
			for r := 0; r < 4; r++ {
				_, d := do(http.MethodGet, "/v1/jobs/"+id, nil)
				status = append(status, ms(d))
			}
		}
	}
	if durable {
		rec, _ := do(http.MethodGet, "/metrics", nil)
		mm, err := scrape(func(string) ([]byte, error) { return rec.Body.Bytes(), nil })
		if err != nil {
			return nil, nil, 0, err
		}
		appendMS = histMeanMS(metricsSnap{}, mm, "ximdd_archive_append_seconds")
	}
	return submit, status, appendMS, nil
}

// fabricProbe runs an in-process fabric coordinator over the live
// ximdd: four 16-seed sweeps of fresh programs and two regress
// requests, timed through its handler, then reads the same fabric.*
// figures the fleet-sweep workload reads from ximdc.
func (b *bench) fabricProbe(m map[string]metric) error {
	a, err := archive.Open(filepath.Join(b.dir, "fabric-probe"))
	if err != nil {
		return err
	}
	defer a.Close()
	co, err := fabric.New(fabric.Options{
		Workers: []string{b.cl.front},
		Archive: a,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
	}()
	h := co.Handler()
	get := handlerGetter(h)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := get("/readyz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process coordinator never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	before, err := scrape(get)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed ^ 0x5eed))
	var progs []*fleetProgram
	var over, regress []float64
	post := func(path string, body []byte) (float64, error) {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		d := ms(time.Since(t0))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("POST %s: %d %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		sc, ok := obs.ParseTraceHeader(rec.Header().Get(obs.TraceHeader))
		if !ok {
			return 0, fmt.Errorf("POST %s: no trace header", path)
		}
		spans, err := fetchTrace(get, sc.TraceID)
		if err != nil {
			return 0, err
		}
		over = append(over, placementOverheads(spans)...)
		return d, nil
	}
	for i := 0; i < 4; i++ {
		fp, err := newFleetProgram(rng)
		if err != nil {
			return err
		}
		if _, err := post("/v1/sweeps", encodeJSON(serve.SweepRequest{Base: fp.base, Seeds: fp.seeds})); err != nil {
			return err
		}
		progs = append(progs, fp)
	}
	for _, fp := range progs[:2] {
		d, err := post("/v1/regress", encodeJSON(serve.RegressRequest{Base: fp.base, Seeds: fp.seeds}))
		if err != nil {
			return err
		}
		regress = append(regress, d)
	}
	after, err := scrape(get)
	if err != nil {
		return err
	}
	fabricFromMetrics(m, before, after)
	m["fabric.placement_overhead_ms"] = metric{median(over), "ms"}
	m["fabric.regress_ms"] = metric{median(regress), "ms"}
	return nil
}
