package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"ximd/internal/obs"
	"ximd/internal/serve"
)

// sample is one completed request as its client saw it.
type sample struct {
	latency time.Duration
	jobs    int    // jobs (sweep variants) the request completed
	cycles  uint64 // machine cycles those jobs simulated
	kind    string // the svc request kind, or "sweep" / "regress"

	// Traced phases only.
	submitRTT time.Duration
	pollRTT   []time.Duration
	polls     int
	daemonMS  float64            // the front daemon's own span for the request
	spans     map[string]float64 // svc: the job's span breakdown
	fp        *fleetProgram      // fleet: the program swept or regressed
	overheads []float64          // fleet: placement overhead per variant
}

// clientLog is one closed-loop client's record of a phase.
type clientLog struct {
	start, end time.Time // phase start, last completion
	samples    []sample
	attempted  int
	failed     int
	errs       []string
}

func (c *clientLog) fail(n int, format string, args ...any) {
	c.failed += n
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// phase is every client's record of one measured interval.
type phase struct{ clients []*clientLog }

func (p *phase) samples() []sample {
	var out []sample
	for _, c := range p.clients {
		out = append(out, c.samples...)
	}
	return out
}

func (p *phase) counts() (attempted, failed int, errs []string) {
	for _, c := range p.clients {
		attempted += c.attempted
		failed += c.failed
		errs = append(errs, c.errs...)
	}
	return
}

// rates sums each client's completions over its own busy interval,
// so a client finishing its last long job after another idles does
// not dilute the figure.
func (p *phase) rates() (jobsPerS, cyclesPerS float64) {
	for _, c := range p.clients {
		d := c.end.Sub(c.start).Seconds()
		if d <= 0 {
			continue
		}
		var jobs int
		var cycles uint64
		for _, s := range c.samples {
			jobs += s.jobs
			cycles += s.cycles
		}
		jobsPerS += float64(jobs) / d
		cyclesPerS += float64(cycles) / d
	}
	return
}

func (p *phase) latenciesMS() []float64 {
	var out []float64
	for _, s := range p.samples() {
		out = append(out, ms(s.latency))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pollSleep is the client's poll back-off: proportional to the time
// already waited, so short jobs are seen promptly and long jobs are
// not hammered.
func pollSleep(waited time.Duration) time.Duration {
	d := waited / 16
	if d < 20*time.Microsecond {
		d = 20 * time.Microsecond
	}
	if d > 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// runClients runs n closed-loop clients until deadline (or ctx ends);
// each finishes the request it has in flight.
func runClients(ctx context.Context, n int, deadline time.Time, loop func(ctx context.Context, id int, deadline time.Time, log *clientLog)) *phase {
	p := &phase{}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		log := &clientLog{start: start, end: start}
		p.clients = append(p.clients, log)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			loop(ctx, id, deadline, log)
		}(i)
	}
	wg.Wait()
	return p
}

// svcLoop returns the closed loop of svc-small and svc-long: submit a
// job, poll it to a terminal state, compare its result document with
// the oracle's, repeat. next picks the client's next request.
func svcLoop(front string, orc *oracle, traced bool, next func(id int) *request) func(context.Context, int, time.Time, *clientLog) {
	return func(ctx context.Context, id int, deadline time.Time, log *clientLog) {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			r := next(id)
			log.attempted++
			s, err := svcJob(front, r, orc, traced)
			if err != nil {
				log.fail(1, "%s: %v", r.kind, err)
				continue
			}
			log.samples = append(log.samples, s)
			log.end = time.Now()
		}
	}
}

type jobStatus struct {
	ID     string          `json:"id"`
	Status serve.State     `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func svcJob(front string, r *request, orc *oracle, traced bool) (sample, error) {
	want, err := orc.expect(r.job)
	if err != nil {
		return sample{}, err
	}
	s := sample{kind: r.kind, jobs: 1, cycles: want.cycles}
	t0 := time.Now()
	status, body, _, err := call(http.MethodPost, front+"/v1/jobs", r.body)
	s.submitRTT = time.Since(t0)
	if err != nil {
		return s, err
	}
	if status != http.StatusAccepted {
		return s, fmt.Errorf("submit: %d %s", status, bytes.TrimSpace(body))
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return s, fmt.Errorf("submit response: %w", err)
	}
	var st jobStatus
	for {
		tp := time.Now()
		status, body, _, err = call(http.MethodGet, front+"/v1/jobs/"+sub.ID, nil)
		s.pollRTT = append(s.pollRTT, time.Since(tp))
		s.polls++
		if err != nil {
			return s, err
		}
		if status != http.StatusOK {
			return s, fmt.Errorf("poll: %d %s", status, bytes.TrimSpace(body))
		}
		st = jobStatus{}
		if err := json.Unmarshal(body, &st); err != nil {
			return s, fmt.Errorf("poll response: %w", err)
		}
		if st.Status == serve.StateDone || st.Status == serve.StateFailed {
			break
		}
		time.Sleep(pollSleep(time.Since(t0)))
	}
	s.latency = time.Since(t0)
	if st.Status != serve.StateDone {
		return s, fmt.Errorf("job %s failed: %s", sub.ID, st.Error)
	}
	if !bytes.Equal(st.Result, want.doc) {
		return s, fmt.Errorf("job %s: result document differs from the in-process oracle", sub.ID)
	}
	if traced {
		b, err := httpGetter(front)("/v1/jobs/" + sub.ID + "/spans")
		if err != nil {
			return s, err
		}
		s.spans = map[string]float64{}
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			var sl serve.SpanLine
			if err := json.Unmarshal(line, &sl); err != nil {
				return s, fmt.Errorf("spans: %w", err)
			}
			s.spans[sl.Span] = sl.Ms
		}
		s.daemonMS = s.spans["total"]
	}
	return s, nil
}

// fleetRun is the fleet-sweep client's state: the fresh-program stock
// and the sweeps that completed, which later regress requests revisit.
type fleetRun struct {
	front string
	rng   *rand.Rand
	stock []*fleetProgram
	done  []*fleetProgram
	// responses holds each sweep's raw per-variant documents for
	// verification after the run.
	responses []sweepResult
}

type sweepResult struct {
	fp   *fleetProgram
	docs []json.RawMessage
	errs []string
	cl   *clientLog
}

func (f *fleetRun) fresh() (*fleetProgram, error) {
	if len(f.stock) == 0 {
		return newFleetProgram(f.rng)
	}
	fp := f.stock[0]
	f.stock = f.stock[1:]
	return fp, nil
}

// loop is fleet-sweep's closed loop: synchronous 16-seed sweeps over
// fresh programs, with one in four requests a regress over an earlier
// sweep.
func (f *fleetRun) loop(traced bool) func(context.Context, int, time.Time, *clientLog) {
	return func(ctx context.Context, _ int, deadline time.Time, log *clientLog) {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			var s sample
			var err error
			if len(f.done) > 0 && f.rng.Intn(4) == 0 {
				fp := f.done[f.rng.Intn(len(f.done))]
				log.attempted += len(fp.seeds)
				s, err = f.regress(fp, log, traced)
			} else {
				var fp *fleetProgram
				if fp, err = f.fresh(); err != nil {
					log.fail(1, "generate program: %v", err)
					return
				}
				log.attempted += len(fp.seeds)
				s, err = f.sweep(fp, log, traced)
			}
			if err != nil {
				log.fail(16, "%s: %v", s.kind, err)
				continue
			}
			log.samples = append(log.samples, s)
			log.end = time.Now()
		}
	}
}

func (f *fleetRun) sweep(fp *fleetProgram, log *clientLog, traced bool) (sample, error) {
	s := sample{kind: "sweep", jobs: len(fp.seeds), fp: fp}
	body := encodeJSON(serve.SweepRequest{Base: fp.base, Seeds: fp.seeds})
	t0 := time.Now()
	status, resp, hdr, err := call(http.MethodPost, f.front+"/v1/sweeps", body)
	s.latency = time.Since(t0)
	s.submitRTT = s.latency
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("%d %s", status, bytes.TrimSpace(resp))
	}
	var sr struct {
		Results []struct {
			Seed   int64           `json:"seed"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp, &sr); err != nil {
		return s, fmt.Errorf("sweep response: %w", err)
	}
	if len(sr.Results) != len(fp.seeds) {
		return s, fmt.Errorf("sweep returned %d results for %d seeds", len(sr.Results), len(fp.seeds))
	}
	res := sweepResult{fp: fp, cl: log}
	for i, r := range sr.Results {
		if r.Seed != fp.seeds[i] {
			return s, fmt.Errorf("sweep result %d has seed %d, want %d", i, r.Seed, fp.seeds[i])
		}
		res.docs = append(res.docs, r.Result)
		res.errs = append(res.errs, r.Error)
	}
	f.responses = append(f.responses, res)
	f.done = append(f.done, fp)
	if traced {
		if err := f.traceRequest(&s, hdr, true); err != nil {
			return s, err
		}
	}
	return s, nil
}

func (f *fleetRun) regress(fp *fleetProgram, log *clientLog, traced bool) (sample, error) {
	s := sample{kind: "regress", jobs: len(fp.seeds), fp: fp}
	body := encodeJSON(serve.RegressRequest{Base: fp.base, Seeds: fp.seeds})
	t0 := time.Now()
	status, resp, hdr, err := call(http.MethodPost, f.front+"/v1/regress", body)
	s.latency = time.Since(t0)
	s.submitRTT = s.latency
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("%d %s", status, bytes.TrimSpace(resp))
	}
	var rr serve.RegressResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		return s, fmt.Errorf("regress response: %w", err)
	}
	rep := rr.Report
	if rep == nil || !rep.Pass || rep.Compared != len(fp.seeds) || rep.MissingBaseline != 0 {
		return s, fmt.Errorf("regress gate did not pass: %s", bytes.TrimSpace(resp))
	}
	if traced {
		if err := f.traceRequest(&s, hdr, false); err != nil {
			return s, err
		}
	}
	return s, nil
}

// traceRequest reads the request's trace tree from the coordinator:
// the root span's duration (daemon-side time), and, for sweeps, one
// status poll of the sweep it names.
func (f *fleetRun) traceRequest(s *sample, hdr http.Header, pollSweep bool) error {
	sc, ok := obs.ParseTraceHeader(hdr.Get(obs.TraceHeader))
	if !ok {
		return fmt.Errorf("response carries no trace header")
	}
	spans, err := fetchTrace(httpGetter(f.front), sc.TraceID)
	if err != nil {
		return err
	}
	s.overheads = placementOverheads(spans)
	var sweepID string
	for _, sp := range spans {
		if sp.Depth == 0 && sp.Service == "ximdc" {
			s.daemonMS = sp.Ms
			sweepID = sp.Attrs["sweep_id"]
		}
	}
	if pollSweep && sweepID != "" {
		tp := time.Now()
		if _, err := httpGetter(f.front)("/v1/sweeps/" + sweepID); err != nil {
			return err
		}
		s.pollRTT = append(s.pollRTT, time.Since(tp))
		s.polls++
	}
	return nil
}

func fetchTrace(get getter, traceID string) ([]obs.TreeLine, error) {
	b, err := get("/v1/traces/" + traceID)
	if err != nil {
		return nil, err
	}
	var out []obs.TreeLine
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var tl obs.TreeLine
		if err := json.Unmarshal(line, &tl); err != nil {
			return nil, fmt.Errorf("trace %s: %w", traceID, err)
		}
		out = append(out, tl)
	}
	return out, nil
}

// placementOverheads pairs every coordinator job span in a trace with
// the worker job span beneath it and returns coordinator minus worker
// time: what placement, submission and status polling add to a job.
func placementOverheads(spans []obs.TreeLine) []float64 {
	byID := map[string]obs.TreeLine{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	var out []float64
	seen := map[string]bool{}
	for _, sp := range spans {
		if sp.Service != "ximdd" || sp.Name != "job" {
			continue
		}
		for p, ok := byID[sp.ParentID]; ok; p, ok = byID[p.ParentID] {
			if p.Service == "ximdc" && p.Name == "job" {
				if !seen[p.SpanID] {
					seen[p.SpanID] = true
					out = append(out, p.Ms-sp.Ms)
				}
				break
			}
		}
	}
	return out
}

// verifyFleet compares every sweep variant's document with the oracle,
// charging failures to the client that issued the sweep, then credits
// every completed request (a regress re-runs its sweep's variants) with
// its variants' cycles.
func verifyFleet(orc *oracle, results []sweepResult, phases ...*phase) error {
	var jobs []serve.JobRequest
	for _, r := range results {
		for _, seed := range r.fp.seeds {
			jobs = append(jobs, r.fp.variant(seed))
		}
	}
	if err := orc.prepare(jobs, 2); err != nil {
		return err
	}
	for _, r := range results {
		for i, seed := range r.fp.seeds {
			want, _ := orc.expect(r.fp.variant(seed))
			switch {
			case r.errs[i] != "":
				r.cl.fail(1, "sweep variant seed %d failed: %s", seed, r.errs[i])
			case !bytes.Equal(r.docs[i], want.doc):
				r.cl.fail(1, "sweep variant seed %d: result document differs from the in-process oracle", seed)
			}
		}
	}
	for _, p := range phases {
		for _, c := range p.clients {
			for i := range c.samples {
				s := &c.samples[i]
				for _, seed := range s.fp.seeds {
					e, _ := orc.expect(s.fp.variant(seed))
					s.cycles += e.cycles
				}
			}
		}
	}
	return nil
}
