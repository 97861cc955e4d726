// Package fabric is the distributed sweep fabric: a coordinator that
// runs jobs and sweep cross-products across a fleet of ximdd workers
// over their HTTP/JSON job API (cmd/ximdc is the daemon wrapper).
//
// The coordinator serves the same handler set a worker does
// (serve.API): request validation, sweep expansion and merge, the
// archive endpoints and the error contract are ximdd's code. This
// package is only the fleet Executor beneath it, which routes each job
// to a worker:
//
//   - Digest-affinity routing: workers are ranked per program by
//     rendezvous hashing on the program SHA-256, so every job of one
//     program prefers the same worker — where its decoded/fusion cache
//     is already warm — and each distinct program gets its own,
//     uniformly distributed first choice. A job spills down the ranking
//     only when the preferred worker is at its load bound.
//
//   - Registration + heartbeats: the coordinator holds a TTL lease on
//     every worker (POST /v1/fabric/lease) and renews it continuously;
//     the renewal doubles as the health probe and load report. A worker
//     that misses enough heartbeats is marked lost; a draining worker
//     (graceful shutdown; non-ready /readyz) stops receiving new work
//     but keeps its inflight jobs, which it will finish.
//
//   - Deterministic requeue: every job is reproducible from (program
//     digest, seed, inject spec) alone, so when a worker is lost its
//     inflight jobs are simply resubmitted to survivors under the same
//     coordinator-assigned id, and the fleet-wide result set is
//     byte-identical to an uninterrupted — or single-node — run.
//
//   - Work stealing: a job stuck queued on a busy worker past the
//     steal threshold is duplicated onto an idle one; whichever copy
//     reaches a terminal state first wins. Duplicated execution is
//     harmless for the same reason requeue is: both copies produce the
//     same bytes.
//
// The shared layer merges results in submission order and appends
// terminal documents to the coordinator's run archive, so GET /v1/runs
// and POST /v1/regress work fleet-wide exactly as they do on one node.
package fabric

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"ximd/internal/archive"
	"ximd/internal/obs"
	"ximd/internal/serve"
	"ximd/internal/xlog"
)

// Options configures a Coordinator. The zero value of every field
// selects a sane default; Workers must name at least one worker URL.
type Options struct {
	// Workers are the fleet's base URLs (e.g. "http://127.0.0.1:8412").
	Workers []string
	// HeartbeatEvery is the lease-renewal interval; <= 0 selects 500ms.
	HeartbeatEvery time.Duration
	// LeaseTTL is the lease duration requested from each worker; <= 0
	// selects 6x HeartbeatEvery.
	LeaseTTL time.Duration
	// MaxMissedHeartbeats marks a worker lost after this many
	// consecutive failed renewals; <= 0 selects 3.
	MaxMissedHeartbeats int
	// PollEvery is the initial status-poll interval for dispatched
	// jobs; <= 0 selects 15ms. Polling backs off geometrically to
	// PollMax (<= 0 selects 250ms) while a job's remote state is
	// unchanged.
	PollEvery time.Duration
	PollMax   time.Duration
	// JobTimeout bounds one fabric job end to end, across requeues;
	// <= 0 selects 120s.
	JobTimeout time.Duration
	// StealAfter duplicates a job that has sat queued on its worker
	// this long onto an idle worker; 0 selects 2s, < 0 disables
	// stealing.
	StealAfter time.Duration
	// MaxInflight caps the coordinator-tracked inflight jobs per
	// worker before the router spills to the next affinity choice;
	// <= 0 uses each worker's reported queue capacity (spill only when
	// the worker would start rejecting).
	MaxInflight int
	// MaxSweepTasks caps one sweep request's fan-out; <= 0 selects 4096.
	MaxSweepTasks int
	// MaxConcurrentSweeps bounds simultaneous synchronous sweeps;
	// <= 0 selects 4.
	MaxConcurrentSweeps int
	// MaxSourceBytes caps a submitted program; <= 0 selects 1 MiB (the
	// worker default).
	MaxSourceBytes int64
	// HTTPTimeout bounds one worker HTTP request; <= 0 selects 10s.
	HTTPTimeout time.Duration
	// Archive, when non-nil, is the fleet-wide durable run archive:
	// terminal jobs and sweep variants are appended, GET /v1/runs
	// queries it, POST /v1/regress gates against it.
	Archive *archive.Archive
	// Logger receives the coordinator's structured log events (worker
	// lost/recovered, requeues, steals); nil selects xlog's text format
	// on stderr — the same lines log.Printf used to produce.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 500 * time.Millisecond
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 6 * o.HeartbeatEvery
	}
	if o.MaxMissedHeartbeats <= 0 {
		o.MaxMissedHeartbeats = 3
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 15 * time.Millisecond
	}
	if o.PollMax <= 0 {
		o.PollMax = 250 * time.Millisecond
	}
	if o.PollMax < o.PollEvery {
		o.PollMax = o.PollEvery
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 120 * time.Second
	}
	if o.StealAfter == 0 {
		o.StealAfter = 2 * time.Second
	}
	if o.MaxSweepTasks <= 0 {
		o.MaxSweepTasks = 4096
	}
	if o.MaxConcurrentSweeps <= 0 {
		o.MaxConcurrentSweeps = 4
	}
	if o.HTTPTimeout <= 0 {
		o.HTTPTimeout = 10 * time.Second
	}
	return o
}

// Coordinator owns the fleet: worker clients and their health and the
// fabric job table, beneath the shared HTTP API it executes for.
// Create with New, mount Handler, drain with Shutdown.
type Coordinator struct {
	opts Options
	// id is this coordinator's lease identity.
	id      string
	mux     *http.ServeMux
	api     *serve.API
	met     *fabricMetrics
	workers []*worker
	log     *slog.Logger

	// Distributed tracing: tr mints coordinator-side spans (request
	// roots, placements) into spanStore; finalize imports worker-side
	// subtrees into the same store, so GET /v1/traces/{id} serves the
	// assembled fleet-wide tree.
	tr        *obs.Tracer
	spanStore *obs.SpanStore

	mu      sync.Mutex
	jobs    map[string]*cjob
	nextJob uint64
	closed  bool

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Coordinator over the configured worker fleet, performs
// one synchronous lease round (workers that are down stay unleased and
// are retried by the heartbeat loop), and starts heartbeating.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, errors.New("fabric: coordinator needs at least one worker URL")
	}
	var idb [6]byte
	_, _ = rand.Read(idb[:])
	c := &Coordinator{
		opts: opts,
		id:   "c-" + hex.EncodeToString(idb[:]),
		mux:  http.NewServeMux(),
		met:  newFabricMetrics(),
		jobs: make(map[string]*cjob),
	}
	c.spanStore = obs.NewSpanStore(0)
	c.tr = obs.NewTracer("ximdc", c.spanStore)
	c.log = opts.Logger
	if c.log == nil {
		c.log, _ = xlog.New(xlog.FormatText, os.Stderr)
	}
	for i, url := range opts.Workers {
		w := newWorker(fmt.Sprintf("w%d", i), url, opts.HTTPTimeout)
		c.workers = append(c.workers, w)
		c.met.registerWorkerGauges(w)
	}
	c.met.workersTotal.Set(int64(len(c.workers)))
	c.met.reg.GaugeFunc("ximdc_workers_ready", "Workers currently leased, healthy, and accepting new jobs.",
		func() float64 {
			n := 0
			for _, w := range c.workers {
				if w.ready() {
					n++
				}
			}
			return float64(n)
		})
	c.rootCtx, c.cancel = context.WithCancel(context.Background())

	// One synchronous lease round so a coordinator started after its
	// workers is routable immediately.
	c.beatAll()
	c.wg.Add(1)
	go c.heartbeatLoop()

	c.api = serve.NewAPI(serve.APIConfig{
		Service:             "ximdc",
		Executor:            c,
		Archive:             opts.Archive,
		Metrics:             c.met.reg,
		Tracer:              c.tr,
		Spans:               c.spanStore,
		MaxSourceBytes:      opts.MaxSourceBytes,
		MaxSweepTasks:       opts.MaxSweepTasks,
		MaxConcurrentSweeps: opts.MaxConcurrentSweeps,
	})
	c.api.Register(c.mux)
	c.mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /livez", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	return c, nil
}

// ID returns the coordinator's lease identity.
func (c *Coordinator) ID() string { return c.id }

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown stops accepting work, cancels every inflight fabric job
// (their goroutines finalize as failed), and waits for the heartbeat
// and job goroutines to exit or ctx to expire.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	idle := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ShuttingDown reports whether Shutdown has begun.
func (c *Coordinator) ShuttingDown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.ShuttingDown() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	for _, wk := range c.workers {
		if wk.ready() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ready")
			return
		}
	}
	http.Error(w, "no ready workers", http.StatusServiceUnavailable)
}

// FleetWorker is one worker's entry in GET /v1/fleet.
type FleetWorker struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	WorkerID string `json:"worker_id,omitempty"`
	// State is "ready", "draining", "lost", or "unleased" (never
	// successfully leased yet).
	State         string `json:"state"`
	Executors     int    `json:"executors,omitempty"`
	QueueCapacity int    `json:"queue_capacity,omitempty"`
	// Inflight is the coordinator-tracked count of this worker's
	// assigned, non-terminal fabric jobs.
	Inflight int `json:"inflight"`
	// Misses is the current consecutive failed-heartbeat count.
	Misses int `json:"misses"`
	// LastHeartbeatAgeMS is how long ago the last successful lease
	// renewal was — the first thing to read when a worker looks slow or
	// lost. Absent until the worker has leased at least once.
	LastHeartbeatAgeMS *float64 `json:"last_heartbeat_age_ms,omitempty"`
}

// FleetResponse is the body of GET /v1/fleet. The poll quantiles
// summarize ximdc_poll_seconds (per-job status-poll round trips), so a
// slow fleet is visible here without scraping Prometheus text.
type FleetResponse struct {
	Coordinator string        `json:"coordinator"`
	Workers     []FleetWorker `json:"workers"`
	PollP50MS   float64       `json:"poll_p50_ms"`
	PollP99MS   float64       `json:"poll_p99_ms"`
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	resp := FleetResponse{
		Coordinator: c.id,
		PollP50MS:   c.met.pollSecs.Quantile(0.50) * 1000,
		PollP99MS:   c.met.pollSecs.Quantile(0.99) * 1000,
	}
	for _, wk := range c.workers {
		resp.Workers = append(resp.Workers, wk.fleetView())
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}
