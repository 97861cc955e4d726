package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ximd/internal/archive"
	"ximd/internal/obs"
	"ximd/internal/serve"
)

// tprocSrc is the Example 1 VLIW-style schedule used across the serve
// tests: 6 cycles, tproc(3,4,5,6)=46 in r6.
const tprocSrc = `
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

// spinSrc never halts; with max_cycles it yields a deterministic
// ErrMaxCycles failure after a tunable amount of real work — the knob
// the kill/steal tests use to keep workers busy.
const spinSrc = `
.fus 1
.fu 0
loop:
	iadd r1, #1, r1
	=> goto loop
`

func tprocBase() serve.JobRequest {
	return serve.JobRequest{
		Arch:   "ximd",
		Source: tprocSrc,
		Pokes:  []string{"r1=3", "r2=4", "r3=5", "r4=6"},
	}
}

// fleet is one coordinator over n in-process ximdd workers.
type fleet struct {
	coord   *Coordinator
	coordTS *httptest.Server
	servers []*serve.Server
	tss     []*httptest.Server
}

// fastOpts are coordinator timings tuned for tests: a worker loss is
// detected within ~100ms instead of seconds.
func fastOpts(urls []string) Options {
	return Options{
		Workers:        urls,
		HeartbeatEvery: 20 * time.Millisecond,
		PollEvery:      2 * time.Millisecond,
		PollMax:        20 * time.Millisecond,
		JobTimeout:     30 * time.Second,
		StealAfter:     -1, // tests opt in explicitly
		HTTPTimeout:    2 * time.Second,
	}
}

func newFleet(t *testing.T, n int, workerOpts serve.Options, tune func(*Options)) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := serve.New(workerOpts)
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.tss = append(f.tss, ts)
		urls[i] = ts.URL
	}
	opts := fastOpts(urls)
	if tune != nil {
		tune(&opts)
	}
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.coordTS = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		f.coordTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
		for i := range f.servers {
			f.tss[i].Close()
			sctx, scancel := context.WithTimeout(context.Background(), time.Second)
			_ = f.servers[i].Shutdown(sctx)
			scancel()
		}
	})
	return f
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// sweepResults posts a synchronous sweep and returns the raw `results`
// array — the byte-identity unit the fabric guarantees.
func sweepResults(t *testing.T, url string, req serve.SweepRequest) json.RawMessage {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return env.Results
}

// TestRendezvousRankStableAndMinimal: the per-digest ranking is stable
// across calls, differs across digests (spread), and removing one
// worker never reorders the survivors — the minimal-disruption property
// that makes digest affinity survive worker loss.
func TestRendezvousRankStableAndMinimal(t *testing.T) {
	c := &Coordinator{opts: Options{}.withDefaults(), met: newFabricMetrics()}
	for _, u := range []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"} {
		c.workers = append(c.workers, newWorker(u, u, time.Second))
	}
	digests := []string{"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10"}

	firstChoice := map[string]bool{}
	for _, d := range digests {
		r1, r2 := c.rank(d), c.rank(d)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("digest %s: ranking not stable", d)
			}
		}
		firstChoice[r1[0].url] = true

		// Remove the winner; every survivor keeps its relative order.
		removed := r1[0]
		c2 := &Coordinator{opts: c.opts, met: c.met}
		for _, w := range c.workers {
			if w != removed {
				c2.workers = append(c2.workers, w)
			}
		}
		r3 := c2.rank(d)
		if len(r3) != len(r1)-1 {
			t.Fatal("survivor ranking wrong length")
		}
		for i := range r3 {
			if r3[i] != r1[i+1] {
				t.Fatalf("digest %s: survivors reordered after removing the winner", d)
			}
		}
	}
	if len(firstChoice) < 2 {
		t.Fatalf("10 digests all ranked the same first choice — no spread: %v", firstChoice)
	}
}

// TestFleetSweepMatchesSingleNode: the fleet's merged sweep response is
// byte-identical, variant for variant, to a single ximdd running the
// same request — same expansion, same order, same documents.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	req := serve.SweepRequest{
		Base:    tprocBase(),
		Seeds:   []int64{1, 2, 3, 4, 5},
		Injects: []string{"", "lat=fixed:2"},
	}

	single := serve.New(serve.Options{Workers: 2, QueueDepth: 32})
	singleTS := httptest.NewServer(single.Handler())
	defer func() {
		singleTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = single.Shutdown(ctx)
	}()
	want := sweepResults(t, singleTS.URL, req)

	f := newFleet(t, 3, serve.Options{Workers: 2, QueueDepth: 32}, nil)
	got := sweepResults(t, f.coordTS.URL, req)

	if !bytes.Equal(want, got) {
		t.Fatalf("fleet merge differs from single node:\nsingle: %s\nfleet:  %s", want, got)
	}
}

// TestAffinityHitRateSingleProgram: every variant of one program routes
// to the program's rendezvous first choice as long as that worker has
// queue capacity — the acceptance bar is > 0.9, the expectation 1.0.
func TestAffinityHitRateSingleProgram(t *testing.T) {
	f := newFleet(t, 3, serve.Options{Workers: 2, QueueDepth: 64}, nil)
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	sweepResults(t, f.coordTS.URL, serve.SweepRequest{Base: tprocBase(), Seeds: seeds})

	hits := float64(f.coord.met.affinityHits.Value())
	spills := float64(f.coord.met.affinitySpills.Value())
	if rate := hits / (hits + spills); rate <= 0.9 {
		t.Fatalf("affinity hit rate = %.3f (hits %v, spills %v), want > 0.9", rate, hits, spills)
	}
	if routed := f.coord.met.jobsRouted.Value(); routed < 20 {
		t.Fatalf("jobs routed = %d, want >= 20", routed)
	}
}

// TestWorkerKilledMidSweepRequeues: kill the affinity-preferred worker
// while it owns a sweep's jobs; the coordinator requeues them onto the
// survivors and the merged response is still byte-identical to a
// single-node run.
func TestWorkerKilledMidSweepRequeues(t *testing.T) {
	// Each variant spins ~1M cycles before its deterministic
	// ErrMaxCycles failure, so the victim still owns work when killed.
	base := serve.JobRequest{Arch: "ximd", Source: spinSrc, MaxCycles: 1_000_000}
	req := serve.SweepRequest{Base: base, Seeds: []int64{1, 2, 3, 4, 5, 6}}

	single := serve.New(serve.Options{Workers: 1, QueueDepth: 32, JobTimeout: 20 * time.Second})
	singleTS := httptest.NewServer(single.Handler())
	defer func() {
		singleTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = single.Shutdown(ctx)
	}()
	want := sweepResults(t, singleTS.URL, req)

	f := newFleet(t, 3, serve.Options{Workers: 1, QueueDepth: 32, JobTimeout: 20 * time.Second}, nil)

	// The whole sweep prefers one worker (single program): find it and
	// kill it once it holds the jobs.
	digest := archive.ProgramDigest("ximd", []byte(spinSrc))
	victim := f.coord.rank(digest)[0]
	var victimTS *httptest.Server
	for i := range f.tss {
		if f.tss[i].URL == victim.url {
			victimTS = f.tss[i]
		}
	}

	type res struct{ results json.RawMessage }
	resc := make(chan res, 1)
	go func() {
		resc <- res{sweepResults(t, f.coordTS.URL, req)}
	}()

	// Wait until the victim actually owns routed jobs, then kill it
	// abruptly (connection-level, like a process kill).
	deadline := time.Now().Add(5 * time.Second)
	for victim.inflightLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no job ever routed to the affinity-preferred worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victimTS.CloseClientConnections()
	victimTS.Close()

	got := (<-resc).results
	if !bytes.Equal(want, got) {
		t.Fatalf("fleet merge after worker kill differs from single node:\nsingle: %s\nfleet:  %s", want, got)
	}
	if n := f.coord.met.jobsRequeued.Value(); n == 0 {
		t.Error("no jobs counted as requeued despite worker kill")
	}
	if n := f.coord.met.workersLost.Value(); n == 0 {
		t.Error("worker never marked lost")
	}

	// The kill is visible in the traces: some job's tree holds a
	// placement on the victim closed with a drop reason, and a later
	// placement marked as the requeue on a different worker.
	byTrace := map[string][]obs.Span{}
	for _, sp := range f.coord.spanStore.Snapshot() {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	dropReasons := map[string]bool{"worker_lost": true, "remote_job_gone": true, "poll_errors": true}
	found := false
	for _, spans := range byTrace {
		var dropped, requeued *obs.Span
		for i := range spans {
			if spans[i].Name != "placement" {
				continue
			}
			if dropReasons[spans[i].Attrs["drop_reason"]] {
				dropped = &spans[i]
			}
			if spans[i].Attrs["requeue"] == "true" {
				requeued = &spans[i]
			}
		}
		if dropped != nil && requeued != nil &&
			dropped.Attrs["worker"] == victim.name &&
			requeued.Attrs["worker"] != victim.name && requeued.Attrs["worker"] != "" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no trace names both the lost worker (with a drop reason) and its requeue replacement")
	}
}

// TestStealFromStraggler: a job queued behind a long run on its
// affinity worker is duplicated onto an idle worker after StealAfter
// and completes there, long before the straggler would have got to it.
func TestStealFromStraggler(t *testing.T) {
	f := newFleet(t, 2, serve.Options{Workers: 1, QueueDepth: 32, JobTimeout: 30 * time.Second}, func(o *Options) {
		o.StealAfter = 50 * time.Millisecond
		o.MaxInflight = 64
	})

	digest := archive.ProgramDigest("ximd", []byte(tprocSrc))
	preferred := f.coord.rank(digest)[0]

	// Occupy the preferred worker's only executor with a long spinner,
	// submitted directly to the worker (not fabric work).
	occupy := serve.JobRequest{Arch: "ximd", Source: spinSrc, MaxCycles: 4_000_000_000}
	resp, body := postJSON(t, preferred.url+"/v1/jobs", occupy)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy: status %d: %s", resp.StatusCode, body)
	}

	// The fabric job routes to the busy preferred worker, sits queued,
	// and gets stolen by the idle one.
	resp, body = postJSON(t, f.coordTS.URL+"/v1/jobs", tprocBase())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var st serve.JobStatus
	for {
		resp, body := getBody(t, f.coordTS.URL+"/v1/jobs/"+sub.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == serve.StateDone || st.Status == serve.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Status != serve.StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result == nil || st.Result.Cycles != 6 {
		t.Fatalf("result = %+v", st.Result)
	}
	if !st.Stolen {
		t.Error("job completed without being stolen off the straggler")
	}
	if n := f.coord.met.jobsStolen.Value(); n == 0 {
		t.Error("steal counter is zero")
	}
}

// TestFleetArchiveAndRegress: terminal fleet jobs land in the
// coordinator's archive with single-node-identical keys, GET /v1/runs
// serves them, and POST /v1/regress gates a fresh fleet run against
// them.
func TestFleetArchiveAndRegress(t *testing.T) {
	arch, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	f := newFleet(t, 2, serve.Options{Workers: 2, QueueDepth: 32}, func(o *Options) {
		o.Archive = arch
	})

	req := serve.SweepRequest{Base: tprocBase(), Seeds: []int64{1, 2, 3}}
	sweepResults(t, f.coordTS.URL, req)
	if arch.Len() != 3 {
		t.Fatalf("archive has %d record(s), want 3", arch.Len())
	}

	resp, body := getBody(t, f.coordTS.URL+"/v1/runs?limit=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runs: %d: %s", resp.StatusCode, body)
	}
	var runs serve.RunsResponse
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatal(err)
	}
	if runs.Count != 3 {
		t.Fatalf("runs count = %d, want 3", runs.Count)
	}
	for _, rec := range runs.Runs {
		if rec.Result == nil || rec.Result.Profile == nil {
			t.Fatal("archived record missing the full profiled document")
		}
	}

	// The gate re-runs the same sweep across the fleet and must pass
	// against the just-archived baselines.
	resp, body = postJSON(t, f.coordTS.URL+"/v1/regress", serve.RegressRequest{
		Base:  tprocBase(),
		Seeds: []int64{1, 2, 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("regress: %d: %s", resp.StatusCode, body)
	}
	var rr serve.RegressResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Report == nil || !rr.Report.Pass {
		t.Fatalf("regress report = %s", body)
	}
	// Regress runs must not have self-archived.
	if arch.Len() != 3 {
		t.Fatalf("archive grew to %d during a non-recording regress", arch.Len())
	}
}

// TestCoordinatorReadyz: readiness reflects the fleet — 503 with no
// leased workers, 200 once any worker leases, and 503 again when the
// coordinator drains.
func TestCoordinatorReadyz(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c, err := New(fastOpts([]string{deadURL}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d, want 503", resp.StatusCode)
	}
	if resp, body := getBody(t, ts.URL+"/livez"); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("livez: %d %q", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = c.Shutdown(ctx)

	f := newFleet(t, 1, serve.Options{Workers: 1, QueueDepth: 4}, nil)
	if resp, body := getBody(t, f.coordTS.URL+"/readyz"); resp.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("readyz with live fleet: %d %q", resp.StatusCode, body)
	}
	resp, body := getBody(t, f.coordTS.URL+"/v1/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	var fr FleetResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Workers) != 1 || fr.Workers[0].State != "ready" {
		t.Fatalf("fleet = %s", body)
	}
}

// TestFleetDetachedSweep: the coordinator's detached sweep mirrors the
// worker contract — 202 with fabric job ids, trackable via
// GET /v1/sweeps/{id} to completion.
func TestFleetDetachedSweep(t *testing.T) {
	f := newFleet(t, 2, serve.Options{Workers: 2, QueueDepth: 32}, nil)
	resp, body := postJSON(t, f.coordTS.URL+"/v1/sweeps", serve.SweepRequest{
		Base:   tprocBase(),
		Seeds:  []int64{7, 8},
		Detach: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detach: %d: %s", resp.StatusCode, body)
	}
	var sub serve.SweepSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if len(sub.JobIDs) != 2 {
		t.Fatalf("job ids = %v", sub.JobIDs)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, body := getBody(t, f.coordTS.URL+"/v1/sweeps/"+sub.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status: %d: %s", resp.StatusCode, body)
		}
		var st serve.SweepStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == serve.StateDone {
			if st.Done != 2 || st.Variants[0].JobID != sub.JobIDs[0] {
				t.Fatalf("sweep status = %s", body)
			}
			break
		}
		if st.Status == serve.StateFailed {
			t.Fatalf("sweep failed: %s", body)
		}
		if time.Now().After(deadline) {
			t.Fatal("detached fleet sweep never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
