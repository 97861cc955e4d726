package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tprocSrc is the Example 1 VLIW-style schedule: 6 cycles, runnable on
// both architectures, result tproc(3,4,5,6)=46 in r6.
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

// spinSrc never halts; paired with a large max_cycles it keeps a worker
// busy for backpressure and shutdown tests.
const spinSrc = `
.fus 1
.fu 0
loop:
	iadd r1, #1, r1
	=> goto loop
`

// storeSrc writes r1+r2 to memory for peek tests.
const storeSrc = `
.fus 1
.fu 0
	iadd r1, r2, r3
	store r3, #100
	=> halt
`

// loadSrc goes through memory, so lat= fault injection stretches it.
const loadSrc = `
.fus 1
.fu 0
	load #100, #0, r1
	load #101, #0, r2
	iadd r1, r2, r3
	store r3, #102
	=> halt
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
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

// submit posts a job and returns the parsed 202 response.
func submit(t *testing.T, ts *httptest.Server, req JobRequest) SubmitResponse {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("submit response: %v: %s", err, body)
	}
	return sr
}

// waitTerminal polls a job until done/failed and returns the final
// status along with its raw body.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) (JobStatus, []byte) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %d: %s", id, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status body: %v: %s", err, body)
		}
		if st.Status == StateDone || st.Status == StateFailed {
			return st, body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func tprocJob() JobRequest {
	return JobRequest{
		Arch:   "ximd",
		Source: tprocSrc,
		Pokes:  []string{"r1=3", "r2=4", "r3=5", "r4=6"},
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	sr := submit(t, ts, tprocJob())
	if sr.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	if len(sr.ProgramSHA256) != 64 {
		t.Errorf("program_sha256 = %q, want 64 hex chars", sr.ProgramSHA256)
	}
	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result == nil || st.Result.Cycles != 6 {
		t.Fatalf("result = %+v, want 6 cycles", st.Result)
	}
	if st.ExitCode == nil || *st.ExitCode != 0 {
		t.Fatalf("exit_code = %v, want 0", st.ExitCode)
	}
	if st.Result.Arch != "ximd" {
		t.Errorf("arch = %q", st.Result.Arch)
	}
}

func TestVLIWJobAndPeeks(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	sr := submit(t, ts, JobRequest{
		Arch:   "vliw",
		Source: storeSrc,
		Pokes:  []string{"r1=20", "r2=22"},
		Peeks:  []string{"100:1"},
	})
	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if len(st.Result.Peeks) != 1 || st.Result.Peeks[0].Values[0] != 42 {
		t.Fatalf("peeks = %+v, want M[100]=42", st.Result.Peeks)
	}
	if st.Result.Arch != "vliw" {
		t.Errorf("arch = %q", st.Result.Arch)
	}
}

func TestMalformedProgramIs400WithLineNumbers(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Source: ".fus 1\n.fu 0\n\tbogus r1, r2, r3\n\t=> halt\n",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "line 3") {
		t.Fatalf("assembler line number lost: %s", body)
	}
}

func TestBadRequestsAre400(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"no program", JobRequest{Arch: "ximd"}},
		{"both source and image", JobRequest{Source: spinSrc, Image: []byte("XIMD")}},
		{"bad arch", JobRequest{Arch: "mips", Source: spinSrc}},
		{"bad poke", JobRequest{Source: spinSrc, Pokes: []string{"q1=2"}}},
		{"bad peek", JobRequest{Source: spinSrc, Peeks: []string{"abc"}}},
		{"bad inject", JobRequest{Source: spinSrc, Inject: "lat=banana"}},
		{"non-vliw code for vliw", JobRequest{Arch: "vliw", Source: `
.fus 2
.fu 0
	iadd r1, #1, r1
	=> halt
.fu 1
l:
	nop
	=> goto l
`}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
	}
	// Unknown JSON fields are rejected too.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"source":"x","frobnicate":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	resp, _ := getBody(t, ts.URL+"/v1/jobs/j-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestSimFaultReportsExitCode(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	sr := submit(t, ts, JobRequest{Source: spinSrc, MaxCycles: 100})
	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateFailed {
		t.Fatalf("status = %s, want failed", st.Status)
	}
	if st.ExitCode == nil || *st.ExitCode != 1 {
		t.Fatalf("exit_code = %v, want 1", st.ExitCode)
	}
	if !strings.Contains(st.Error, "maximum cycle count") {
		t.Fatalf("error = %q", st.Error)
	}
}

func TestTraceEndpointNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	traced := tprocJob()
	traced.Trace = true
	sr := submit(t, ts, traced)
	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	resp, body := getBody(t, ts.URL+"/v1/jobs/"+sr.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q", ct)
	}
	var lines []TraceLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var line TraceLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if uint64(len(lines)) != st.Result.Cycles {
		t.Fatalf("%d trace lines for %d cycles", len(lines), st.Result.Cycles)
	}
	if lines[0].Cycle != 0 || len(lines[0].PC) != 4 || lines[0].Partition == "" {
		t.Fatalf("first line = %+v", lines[0])
	}

	// A job submitted without trace=true 404s.
	plain := submit(t, ts, tprocJob())
	waitTerminal(t, ts, plain.ID)
	resp, _ = getBody(t, ts.URL+"/v1/jobs/"+plain.ID+"/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced job trace status = %d, want 404", resp.StatusCode)
	}
}

func TestSweepEndpointOrderAndDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 8})
	req := SweepRequest{
		Base: JobRequest{
			Source: loadSrc,
			Mem:    []string{"100=20", "101=22"},
			Peeks:  []string{"102:1"},
		},
		Seeds:   []int64{1, 2, 3},
		Injects: []string{"", "lat=fixed:2"},
	}
	// The first request warms the decoded-program cache, the second hits
	// it; their result arrays must still be byte-identical. (Only the
	// cache_hit field outside "results" may differ.)
	var results [][]byte
	var sw SweepResponse
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/sweeps", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status = %d: %s", resp.StatusCode, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		results = append(results, fields["results"])
		if i == 0 {
			if err := json.Unmarshal(body, &sw); err != nil {
				t.Fatal(err)
			}
			if sw.CacheHit {
				t.Error("first sweep reported a cache hit")
			}
		} else {
			var second SweepResponse
			if err := json.Unmarshal(body, &second); err != nil {
				t.Fatal(err)
			}
			if !second.CacheHit {
				t.Error("second sweep missed the decoded-program cache")
			}
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("cold and cached sweep results differ:\n%s\n%s", results[0], results[1])
	}
	if len(sw.Results) != 6 {
		t.Fatalf("%d results, want 6", len(sw.Results))
	}
	// Submission order: inject outer, seed inner.
	wantOrder := []struct {
		inject string
		seed   int64
	}{
		{"", 1}, {"", 2}, {"", 3},
		{"lat=fixed:2", 1}, {"lat=fixed:2", 2}, {"lat=fixed:2", 3},
	}
	for i, want := range wantOrder {
		got := sw.Results[i]
		if got.Inject != want.inject || got.Seed != want.seed {
			t.Fatalf("results[%d] = (%q, %d), want (%q, %d)", i, got.Inject, got.Seed, want.inject, want.seed)
		}
		if got.Error != "" || got.Result == nil {
			t.Fatalf("results[%d] failed: %s", i, got.Error)
		}
		if got.Result.Peeks[0].Values[0] != 42 {
			t.Fatalf("results[%d] M[102] = %d, want 42", i, got.Result.Peeks[0].Values[0])
		}
	}
	// Idealized memory runs in fewer cycles than lat=fixed:2.
	if base, slow := sw.Results[0].Result.Cycles, sw.Results[3].Result.Cycles; slow <= base {
		t.Errorf("lat=fixed:2 cycles = %d, want > idealized %d", slow, base)
	}
}

func TestHealthzAndVarz(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	sr := submit(t, ts, tprocJob())
	waitTerminal(t, ts, sr.ID)

	resp, body = getBody(t, ts.URL+"/varz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("varz status = %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("varz is not JSON: %v: %s", err, body)
	}
	for _, key := range []string{"queue_depth", "queue_capacity", "jobs_done", "jobs_failed",
		"cache_hits", "cache_misses", "cycles_simulated", "cache_entries", "workers"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("varz missing %q: %s", key, body)
		}
	}
	if string(vars["jobs_done"]) != "1" {
		t.Errorf("jobs_done = %s, want 1", vars["jobs_done"])
	}
	if string(vars["cycles_simulated"]) != "6" {
		t.Errorf("cycles_simulated = %s, want 6", vars["cycles_simulated"])
	}

	// After shutdown begins, healthz reports draining and submissions 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", tprocJob())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Base: tprocJob()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain = %d, want 503", resp.StatusCode)
	}
}

func TestBackpressure429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 7 * time.Second,
		JobTimeout: time.Minute,
	})
	long := JobRequest{Source: spinSrc, MaxCycles: 4_000_000_000}
	var got429 *http.Response
	var body429 []byte
	// Depth 1 and one (busy) worker: by the third submission at the
	// latest the queue must be full.
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", long)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429, body429 = resp, body
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got429 == nil {
		t.Fatal("queue never filled: no 429 in 5 submissions with depth 1 and 1 worker")
	}
	if ra := got429.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	if !strings.Contains(string(body429), "queue full") {
		t.Fatalf("429 body = %s", body429)
	}
	// Cancel the spin jobs now so the deferred cleanup is instant.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
}

func TestShutdownCancelsStuckJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute})
	ids := []string{
		submit(t, ts, JobRequest{Source: spinSrc, MaxCycles: 4_000_000_000}).ID,
		submit(t, ts, JobRequest{Source: spinSrc, MaxCycles: 4_000_000_000}).ID,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	// Every accepted job must still reach a terminal state — cancelled,
	// not dropped.
	for _, id := range ids {
		st, _ := waitTerminal(t, ts, id)
		if st.Status != StateFailed {
			t.Fatalf("job %s = %s, want failed", id, st.Status)
		}
		if !strings.Contains(st.Error, "context canceled") {
			t.Fatalf("job %s error = %q, want cancellation", id, st.Error)
		}
	}
}

func TestJobTimeoutViaSweepTaskTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2, JobTimeout: 50 * time.Millisecond})
	sr := submit(t, ts, JobRequest{Source: spinSrc, MaxCycles: 4_000_000_000})
	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateFailed {
		t.Fatalf("status = %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("error = %q, want deadline exceeded", st.Error)
	}
}

func TestSweepLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2, MaxSweepTasks: 4})
	req := SweepRequest{Base: tprocJob(), Seeds: []int64{1, 2, 3, 4, 5}}
	resp, body := postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "limit 4") {
		t.Fatalf("body = %s", body)
	}
	bad := SweepRequest{Base: tprocJob(), Injects: []string{"lat=banana"}}
	resp, body = postJSON(t, ts.URL+"/v1/sweeps", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad inject sweep: %d: %s", resp.StatusCode, body)
	}
	traced := tprocJob()
	traced.Trace = true
	resp, _ = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Base: traced})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traced sweep: %d, want 400", resp.StatusCode)
	}
}

func TestSweepBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers:             1,
		QueueDepth:          2,
		MaxConcurrentSweeps: 1,
		RetryAfter:          3 * time.Second,
	})
	// Hold the single sweep slot so the probe below deterministically
	// sees the capacity-exhausted path.
	s.api.sweepSem <- struct{}{}
	resp, body := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Base: tprocJob()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep with slot held: %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	<-s.api.sweepSem
	resp, body = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Base: tprocJob()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep with slot free: %d: %s", resp.StatusCode, body)
	}
}

func TestSubmitResponseEchoesQueueState(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	sr := submit(t, ts, tprocJob())
	if sr.Status != StateQueued {
		t.Fatalf("status = %s, want queued", sr.Status)
	}
	if sr.ID == "" {
		t.Fatal("empty job id")
	}
}
