package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ximd/internal/obs"
	"ximd/internal/serve"
)

// worker is the coordinator's record of one ximdd worker: an HTTP
// client for its job API plus the lease/health state the heartbeat
// loop maintains and the router reads.
type worker struct {
	// name is the stable display name ("w0", "w1", ...); url the base
	// address. url is the rendezvous-hash key, so a worker's affinity
	// ranking survives lease loss, restarts, and reordering of the
	// fleet list.
	name string
	url  string
	hc   *http.Client

	mu sync.Mutex
	// id is the worker-reported identity from the last successful
	// lease; empty until first contact.
	id        string
	executors int
	queueCap  int
	draining  bool
	lost      bool
	leased    bool
	misses    int
	// lastLease is when the last successful lease renewal landed; zero
	// until first contact. Surfaced as heartbeat age in GET /v1/fleet.
	lastLease time.Time
	// inflight tracks this worker's assigned, non-terminal fabric jobs
	// by coordinator id.
	inflight map[string]*cjob
}

func newWorker(name, url string, timeout time.Duration) *worker {
	return &worker{
		name:     name,
		url:      url,
		hc:       &http.Client{Timeout: timeout},
		inflight: make(map[string]*cjob),
	}
}

// ready reports whether the router may place new work here: leased at
// least once, not lost, not draining.
func (w *worker) ready() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.leased && !w.lost && !w.draining
}

func (w *worker) isLost() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lost
}

// loadBound is the inflight count at which the router spills past this
// worker: the configured cap, or the worker's reported queue capacity
// (spill only when it would start answering 429) when no cap is set.
func (w *worker) loadBound(maxInflight int) int {
	if maxInflight > 0 {
		return maxInflight
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.queueCap > 0 {
		return w.queueCap
	}
	return 64
}

func (w *worker) inflightLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inflight)
}

func (w *worker) attach(j *cjob)   { w.mu.Lock(); w.inflight[j.id] = j; w.mu.Unlock() }
func (w *worker) detach(id string) { w.mu.Lock(); delete(w.inflight, id); w.mu.Unlock() }

// noteLease folds a successful lease response into the health state.
// Returns true when this recovered a previously lost worker.
func (w *worker) noteLease(resp *serve.LeaseResponse) (recovered bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	recovered = w.lost
	w.id = resp.WorkerID
	w.executors = resp.Executors
	w.queueCap = resp.QueueCapacity
	w.draining = resp.Draining
	w.leased = true
	w.lost = false
	w.misses = 0
	w.lastLease = time.Now()
	return recovered
}

// noteMiss counts one failed heartbeat; at maxMisses the worker flips
// to lost and its inflight jobs are orphaned for requeue (the per-job
// goroutines observe the lost flag and resubmit elsewhere).
func (w *worker) noteMiss(maxMisses int) (justLost bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.misses++
	if w.misses >= maxMisses && !w.lost {
		w.lost = true
		return true
	}
	return false
}

// noteDraining marks the worker draining immediately (a 503 on submit
// beats the next heartbeat to the news).
func (w *worker) noteDraining() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

func (w *worker) fleetView() FleetWorker {
	w.mu.Lock()
	defer w.mu.Unlock()
	state := "ready"
	switch {
	case !w.leased:
		state = "unleased"
	case w.lost:
		state = "lost"
	case w.draining:
		state = "draining"
	}
	fw := FleetWorker{
		Name:          w.name,
		URL:           w.url,
		WorkerID:      w.id,
		State:         state,
		Executors:     w.executors,
		QueueCapacity: w.queueCap,
		Inflight:      len(w.inflight),
		Misses:        w.misses,
	}
	if !w.lastLease.IsZero() {
		age := float64(time.Since(w.lastLease)) / float64(time.Millisecond)
		fw.LastHeartbeatAgeMS = &age
	}
	return fw
}

// Typed submit failures the dispatch loop routes around.
var (
	errWorkerBusy     = errors.New("fabric: worker queue full")
	errWorkerDraining = errors.New("fabric: worker draining")
)

// postJSON round-trips one JSON request against the worker. hdr holds
// optional extra headers (e.g. trace propagation), alternating
// key, value.
func (w *worker) postJSON(ctx context.Context, path string, body, out any, hdr ...string) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp.StatusCode, json.Unmarshal(data, out)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return resp.StatusCode, errors.New(eb.Error)
	}
	return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d", w.name, path, resp.StatusCode)
}

// lease acquires or renews the coordinator's lease.
func (w *worker) lease(ctx context.Context, coordinator string, ttl time.Duration) (*serve.LeaseResponse, error) {
	var out serve.LeaseResponse
	_, err := w.postJSON(ctx, "/v1/fabric/lease",
		serve.LeaseRequest{Coordinator: coordinator, TTLMS: int64(ttl / time.Millisecond)}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// submit places one job on the worker. 429 and 503 come back as the
// typed errors above so the router can spill instead of failing the
// job. traceHeader, when non-empty, propagates the coordinator's trace
// context so the worker's spans join the fleet-wide tree.
func (w *worker) submit(ctx context.Context, req *serve.JobRequest, traceHeader string) (*serve.SubmitResponse, error) {
	var out serve.SubmitResponse
	var hdr []string
	if traceHeader != "" {
		hdr = []string{obs.TraceHeader, traceHeader}
	}
	status, err := w.postJSON(ctx, "/v1/jobs", req, &out, hdr...)
	switch status {
	case http.StatusTooManyRequests:
		return nil, fmt.Errorf("%w: %v", errWorkerBusy, err)
	case http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w: %v", errWorkerDraining, err)
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// fetchSpans pulls the worker-side spans of one trace so the
// coordinator can splice them into the fleet-wide tree. A worker that
// never recorded the trace (restarted, span store evicted) answers
// 404; that is an empty result, not an error.
func (w *worker) fetchSpans(ctx context.Context, traceID string) ([]obs.Span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/traces/"+traceID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s traces %s: HTTP %d", w.name, traceID, resp.StatusCode)
	}
	return obs.ParseTraceNDJSON(data)
}

// errJobGone reports a remote job id the worker no longer knows — a
// worker restarted without durable state. The job is requeued.
var errJobGone = errors.New("fabric: remote job gone")

// status polls one remote job.
func (w *worker) status(ctx context.Context, remoteID string) (*serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, errJobGone
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s status %s: HTTP %d", w.name, remoteID, resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
