package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ximd/internal/archive"
	"ximd/internal/serve"
)

// parityResp is what the error contract fixes for one request: the
// status, whether Retry-After is set, and the body.
type parityResp struct {
	status     int
	retryAfter bool
	body       string
}

// send performs one request; a transport failure comes back as status
// 0 with the error as the body, so send is safe off the test goroutine.
func send(method, url, body string) parityResp {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return parityResp{body: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return parityResp{body: err.Error()}
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return parityResp{body: err.Error()}
	}
	return parityResp{resp.StatusCode, resp.Header.Get("Retry-After") != "", out.String()}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkParity sends one request to a ximdd and to a ximdc and holds
// both answers to the same status and Retry-After presence, and — for
// validation errors — the same body.
func checkParity(t *testing.T, name, ximdd, ximdc, method, path, body string, wantStatus int, sameBody bool) {
	t.Helper()
	d := send(method, ximdd+path, body)
	c := send(method, ximdc+path, body)
	if d.status != wantStatus {
		t.Errorf("%s: ximdd answered %d, want %d: %s", name, d.status, wantStatus, d.body)
	}
	if c.status != d.status || c.retryAfter != d.retryAfter {
		t.Errorf("%s: ximdc answered %d (Retry-After %v), ximdd %d (Retry-After %v): %s",
			name, c.status, c.retryAfter, d.status, d.retryAfter, c.body)
	}
	if sameBody && c.body != d.body {
		t.Errorf("%s: bodies differ:\nximdd: %sximdc: %s", name, d.body, c.body)
	}
}

// TestErrorParity: ximdd and a 1-worker ximdc refuse every error-path
// request the same way — status, Retry-After, and (for validation
// errors) the body — because both run the same handler code.
func TestErrorParity(t *testing.T) {
	arch, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	workerArch, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer workerArch.Close()
	// withArch answers the archive endpoints; plain runs without one.
	withArch := newFleet(t, 1, serve.Options{Workers: 1, QueueDepth: 8, Archive: workerArch}, func(o *Options) {
		o.Archive = arch
	})
	plain := newFleet(t, 1, serve.Options{Workers: 1, QueueDepth: 8}, nil)

	job := func(edit func(*serve.JobRequest)) serve.JobRequest {
		req := tprocBase()
		if edit != nil {
			edit(&req)
		}
		return req
	}
	sweep := func(edit func(*serve.JobRequest)) string {
		return mustJSON(t, serve.SweepRequest{Base: job(edit), Seeds: []int64{1, 2}})
	}
	regress := func(edit func(*serve.RegressRequest)) string {
		req := serve.RegressRequest{Base: tprocBase(), Seeds: []int64{1}}
		edit(&req)
		return mustJSON(t, req)
	}
	badInject := "lat=banana"

	rows := []struct {
		name         string
		fleet        *fleet
		method, path string
		body         string
		status       int
		sameBody     bool
	}{
		{"malformed JSON", plain, "POST", "/v1/jobs", `{"source":`, 400, true},
		{"unknown field", plain, "POST", "/v1/jobs", `{"sourse":"nop"}`, 400, true},
		{"bad arch", plain, "POST", "/v1/jobs", mustJSON(t, job(func(r *serve.JobRequest) { r.Arch = "risc" })), 400, true},
		{"source and image", plain, "POST", "/v1/jobs", mustJSON(t, job(func(r *serve.JobRequest) { r.Image = []byte{1} })), 400, true},
		{"neither source nor image", plain, "POST", "/v1/jobs", mustJSON(t, job(func(r *serve.JobRequest) { r.Source = "" })), 400, true},
		{"1.5 MiB source", plain, "POST", "/v1/jobs",
			mustJSON(t, job(func(r *serve.JobRequest) { r.Source = strings.Repeat("x", 3<<19) })), 413, true},
		{"bad inject", plain, "POST", "/v1/sweeps", sweep(func(r *serve.JobRequest) { r.Inject = badInject }), 400, true},
		{"bad pokes", plain, "POST", "/v1/sweeps", sweep(func(r *serve.JobRequest) { r.Pokes = []string{"r999=1"} }), 400, true},
		{"bad assembly", plain, "POST", "/v1/sweeps",
			sweep(func(r *serve.JobRequest) { r.Source = ".fus 1\n.fu 0\n\tbogus r1\n\t=> halt\n" }), 400, true},
		{"trace sweep", plain, "POST", "/v1/sweeps", sweep(func(r *serve.JobRequest) { r.Trace = true }), 400, true},
		{"negative tolerance", withArch, "POST", "/v1/regress",
			regress(func(r *serve.RegressRequest) { r.Tolerance = -1 }), 400, true},
		{"bad baseline_inject", withArch, "POST", "/v1/regress",
			regress(func(r *serve.RegressRequest) { r.BaselineInject = &badInject }), 400, true},
		{"bad runs seed", withArch, "GET", "/v1/runs?seed=x", "", 400, true},
		{"bad runs limit", withArch, "GET", "/v1/runs?limit=-1", "", 400, true},
		{"runs without archive", plain, "GET", "/v1/runs", "", 404, false},
		{"regress without archive", plain, "POST", "/v1/regress", regress(func(*serve.RegressRequest) {}), 404, false},
		{"unknown job", plain, "GET", "/v1/jobs/j-999", "", 404, false},
		{"unknown sweep", plain, "GET", "/v1/sweeps/s-999", "", 404, false},
	}
	for _, r := range rows {
		checkParity(t, r.name, r.fleet.tss[0].URL, r.fleet.coordTS.URL, r.method, r.path, r.body, r.status, r.sameBody)
	}

	// Sweep capacity: fill every synchronous-sweep slot on both daemons
	// with sweeps that spin until shutdown, then probe.
	ximdd, ximdc := plain.tss[0].URL, plain.coordTS.URL
	long := mustJSON(t, serve.SweepRequest{
		Base:  serve.JobRequest{Source: spinSrc, MaxCycles: 4_000_000_000},
		Seeds: []int64{1},
	})
	done := make(chan int, 16)
	for _, url := range []string{ximdd, ximdc} {
		full := make(chan struct{}, 8)
		for i := 0; i < 8; i++ {
			go func() {
				r := send("POST", url+"/v1/sweeps", long)
				if r.status == http.StatusTooManyRequests {
					full <- struct{}{}
				}
				done <- r.status
			}()
		}
		select {
		case <-full:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: sweep capacity never filled", url)
		}
	}
	checkParity(t, "sweep capacity", ximdd, ximdc, "POST", "/v1/sweeps", sweep(nil), 429, false)

	// Shutdown: both drain, cancelling the spinning sweeps, and refuse
	// new work with 503 + Retry-After.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = plain.coord.Shutdown(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	_ = plain.servers[0].Shutdown(sctx)
	scancel()
	checkParity(t, "shutdown job", ximdd, ximdc, "POST", "/v1/jobs", mustJSON(t, tprocBase()), 503, false)
	checkParity(t, "shutdown sweep", ximdd, ximdc, "POST", "/v1/sweeps", sweep(nil), 503, false)
	for i := 0; i < 16; i++ {
		<-done
	}
}
