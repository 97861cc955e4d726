package serve

// The shared job API. ximdd and ximdc serve one handler set, written
// once here over an Executor: ximdd's local manager runs jobs
// in-process, ximdc's fleet dispatcher (internal/fabric) routes them to
// workers. Everything a client can observe about a request, apart from
// where it ran, is decided here: body decode and validation
// (buildJob), the 400/404/413/429/503 mapping with Retry-After, trace
// adoption for sweeps and regressions, sweep expansion and merge,
// detached-sweep status, GET /v1/runs, POST /v1/regress, and archive
// appends with their metric family.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ximd/internal/archive"
	"ximd/internal/hostcfg"
	"ximd/internal/inject"
	"ximd/internal/obs"
	"ximd/internal/runner"
)

// Executor runs the jobs the shared handlers admit.
type Executor interface {
	// Load resolves program bytes to a decoded program and its content
	// digest; hit reports a decoded-program cache hit. A Load error is
	// the request's 400, assembler line numbers included.
	Load(arch runner.Arch, source []byte) (prog *runner.Program, digest string, hit bool, err error)
	// Submit admits one job under the caller's trace context and
	// returns its id and the trace context the 202 echoes.
	Submit(j *Job, sc obs.SpanContext) (id string, echo obs.SpanContext, err error)
	// SubmitSweep admits a detached sweep's jobs atomically, tracing
	// each under span with the sweep id, and returns their ids in order.
	SubmitSweep(jobs []*Job, sweepID string, span *obs.Span) ([]string, error)
	// RunBatch runs jobs to completion for a synchronous sweep or a
	// regression gate, tracing each under span, and returns their
	// outcomes in order. ids names the jobs when they ran as pollable
	// jobs (the fleet), nil otherwise.
	RunBatch(jobs []*Job, span *obs.Span) (outs []Outcome, ids []string)
	// Status reports one job; an unknown id wraps ErrUnknownJob.
	Status(id string) (*JobStatus, error)
	// ShuttingDown reports whether the executor has begun to drain.
	ShuttingDown() bool
}

// Errors the shared handlers map to HTTP statuses (see refuse).
var (
	// ErrQueueFull is the backpressure signal: the bounded submission
	// queue is at capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: submission queue full")
	// ErrShuttingDown rejects work during graceful shutdown (HTTP 503 +
	// Retry-After).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrUnknownJob reports a job id that was never issued (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrUnknownSweep reports a sweep id that was never issued (HTTP 404).
	ErrUnknownSweep = errors.New("serve: unknown sweep")

	errSweepBusy = errors.New("serve: sweep capacity in use")
)

// Job is one validated job request, built by the shared handlers and
// handed to an Executor.
type Job struct {
	// Req is the request as validated; a sweep variant carries the
	// variant's seed and inject.
	Req JobRequest
	// Name is the sweep task label ("inject=%q/seed=%d"); empty for a
	// direct submission.
	Name string
	// Digest is the program's content address: the program_sha256 of
	// every response and the fleet's affinity key.
	Digest string
	Arch   runner.Arch
	// CanonInject is Req.Inject in canonical form, the archive key's
	// inject axis.
	CanonInject string
	// CacheHit reports that the decoded program was reused rather than
	// decoded for this job.
	CacheHit bool

	// The local run view, derived from Req.
	prog      *runner.Program
	spec      runner.Spec
	peeks     []hostcfg.MemPeek
	flight    int
	decodeDur time.Duration
}

// archiveKey is the run-archive key of the job's outcome.
func (j *Job) archiveKey() archive.Key {
	return archive.Key{
		ProgramSHA256: j.Digest,
		Arch:          string(j.Arch),
		Seed:          j.Req.Seed,
		Inject:        j.CanonInject,
	}
}

// ArchiveRecord is the run-archive record of one outcome of the job.
func (j *Job) ArchiveRecord(o Outcome, unixMS int64) archive.Record {
	return archive.Record{
		Key:      j.archiveKey(),
		ExitCode: o.ExitCode,
		Error:    o.Err,
		Result:   o.Result,
		UnixMS:   unixMS,
	}
}

// ClientResult trims an archived document, which always carries the
// stall-attribution profile, to what the request asked for.
func (j *Job) ClientResult(doc *runner.ResultDoc) *runner.ResultDoc {
	if doc == nil || j.Req.Profile {
		return doc
	}
	d := *doc
	d.Profile = nil
	return &d
}

// variants derives one job per expanded sweep point. Every variant
// reuses j's decoded program.
func (j *Job) variants(vs []variant) []*Job {
	out := make([]*Job, len(vs))
	for i, v := range vs {
		vj := *j
		vj.Name = v.name
		vj.Req.Seed, vj.Req.Inject = v.seed, v.inject
		vj.spec.Seed, vj.spec.Inject = v.seed, v.inject
		vj.CanonInject = v.canon
		vj.CacheHit = true
		vj.decodeDur = 0
		out[i] = &vj
	}
	return out
}

// Outcome is one job's terminal result from Executor.RunBatch.
type Outcome struct {
	// Result is the full document, profile included; nil on failure.
	Result   *runner.ResultDoc
	Err      string
	ExitCode int
	// Abandoned marks a failure of the executor rather than of the run
	// (a fleet deadline or shutdown). It is reported but never
	// archived: unlike the run's own outcome, it is not a function of
	// the request.
	Abandoned bool
}

// APIConfig wires the shared handler set to one daemon.
type APIConfig struct {
	// Service names the daemon ("ximdd", "ximdc"): the prefix of the
	// API's metric family and the name in error hints.
	Service  string
	Executor Executor
	// Archive, when non-nil, records terminal runs and backs GET
	// /v1/runs and POST /v1/regress; nil answers both 404.
	Archive *archive.Archive
	// Metrics is the daemon's registry, served at GET /metrics.
	Metrics *obs.Registry
	// Tracer roots sweep and regress spans; Spans is the store GET
	// /v1/traces serves.
	Tracer *obs.Tracer
	Spans  *obs.SpanStore
	// TraceJobs admits trace=true on POST /v1/jobs (the daemon serves
	// GET /v1/jobs/{id}/trace).
	TraceJobs bool
	// MaxSourceBytes caps a submitted program; <= 0 selects 1 MiB.
	MaxSourceBytes int64
	// RetryAfter is the hint on 429 and 503; <= 0 selects 1s.
	RetryAfter time.Duration
	// MaxSweepTasks caps one sweep's fan-out; MaxConcurrentSweeps bounds
	// the synchronous sweeps and regressions in flight (excess answers
	// 429). Each daemon supplies its own default.
	MaxSweepTasks       int
	MaxConcurrentSweeps int
}

// API is the shared handler set. Create with NewAPI and mount with
// Register.
type API struct {
	cfg      APIConfig
	ex       Executor
	met      *apiMetrics
	sweepSem chan struct{}

	mu        sync.Mutex
	sweeps    map[string]*sweepRec
	nextSweep uint64
}

// NewAPI builds the handler set over cfg.Executor.
func NewAPI(cfg APIConfig) *API {
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 1 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &API{
		cfg:      cfg,
		ex:       cfg.Executor,
		met:      newAPIMetrics(cfg.Metrics, cfg.Service, cfg.Archive),
		sweepSem: make(chan struct{}, cfg.MaxConcurrentSweeps),
		sweeps:   make(map[string]*sweepRec),
	}
}

// Register mounts the shared endpoints on mux.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", a.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleStatus)
	mux.HandleFunc("POST /v1/sweeps", a.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", a.handleSweepStatus)
	mux.HandleFunc("GET /v1/runs", a.handleRuns)
	mux.HandleFunc("POST /v1/regress", a.handleRegress)
	mux.Handle("GET /v1/traces", obs.TraceListHandler(a.cfg.Spans))
	mux.Handle("GET /v1/traces/{id}", obs.TraceTreeHandler(a.cfg.Spans))
	mux.Handle("GET /metrics", a.cfg.Metrics.Handler())
}

// Record appends one terminal run to the archive, counting the outcome
// in the metric family. No-op without an archive; a failed append is
// counted but never alters the run.
func (a *API) Record(rec archive.Record) {
	if a.cfg.Archive == nil {
		return
	}
	start := time.Now()
	err := a.cfg.Archive.Append(rec)
	a.met.archiveAppendSecs.Observe(time.Since(start).Seconds())
	if err != nil {
		a.met.archiveAppendErrs.Inc()
		return
	}
	a.met.archiveAppends.Inc()
}

// errorBody is every non-2xx JSON body.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error()})
}

// retryAfterSeconds renders a Retry-After hint in whole seconds,
// rounding up with a floor of 1: the header's unit is integral
// seconds, so truncating a sub-second configuration would emit
// "Retry-After: 0" and tell backed-off clients to hammer immediately.
func retryAfterSeconds(d time.Duration) string {
	secs := (int64(d) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// setRetryAfter stamps the Retry-After hint on a backpressure response
// (429, 503, and ximdd's pre-terminal 409s).
func (a *API) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSeconds(a.cfg.RetryAfter))
}

// refuse answers a request the service cannot take now or cannot
// find: 429 (queue or sweep capacity) and 503 (draining) with
// Retry-After, 404 for unknown ids, 500 for anything else.
func (a *API) refuse(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, errSweepBusy):
		a.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		a.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrUnknownSweep):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// decode reads a JSON request body strictly (unknown fields are
// errors), answering 400 itself on failure.
func (a *API) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, a.cfg.MaxSourceBytes*2))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// acquireSweep takes a synchronous-sweep slot, answering 503 while
// draining and 429 when every slot is busy. The caller releases a
// granted slot with <-a.sweepSem.
func (a *API) acquireSweep(w http.ResponseWriter) bool {
	if a.ex.ShuttingDown() {
		a.refuse(w, ErrShuttingDown)
		return false
	}
	select {
	case a.sweepSem <- struct{}{}:
		return true
	default:
		a.refuse(w, errSweepBusy)
		return false
	}
}

// buildJob validates a JobRequest into a Job, resolving the program
// through the executor. Failures carry the HTTP status they deserve:
// 413 for an oversized program, 400 for everything else (assembler
// line numbers preserved).
func (a *API) buildJob(req *JobRequest) (*Job, int, error) {
	arch, err := runner.ParseArch(req.Arch)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var source []byte
	switch {
	case req.Source != "" && len(req.Image) > 0:
		return nil, http.StatusBadRequest, errors.New("request sets both source and image")
	case req.Source != "":
		source = []byte(req.Source)
	case len(req.Image) > 0:
		source = req.Image
	default:
		return nil, http.StatusBadRequest, errors.New("request needs source (assembly text) or image (binary program)")
	}
	if int64(len(source)) > a.cfg.MaxSourceBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("program is %d bytes, limit %d", len(source), a.cfg.MaxSourceBytes)
	}
	if req.Flight < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("flight must be >= 0, got %d", req.Flight)
	}

	decodeStart := time.Now()
	prog, digest, hit, err := a.ex.Load(arch, source)
	decodeDur := time.Since(decodeStart)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	j := &Job{
		Req:       *req,
		Digest:    digest,
		Arch:      arch,
		CacheHit:  hit,
		prog:      prog,
		flight:    min(req.Flight, MaxFlightCycles),
		decodeDur: decodeDur,
		spec: runner.Spec{
			MaxCycles:         req.MaxCycles,
			TolerateConflicts: req.TolerateConflicts,
			Seed:              req.Seed,
			Inject:            req.Inject,
		},
	}
	if j.spec.RegPokes, err = hostcfg.ParseRegPokes(req.Pokes); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if j.spec.MemPokes, err = hostcfg.ParseMemPokes(req.Mem); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if j.peeks, err = hostcfg.ParseMemPeeks(req.Peeks); err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Canonicalizing validates the inject spec at submit — the client
	// gets a 400 instead of a queued job that fails at run time — and
	// fixes the archive key's inject axis, so reordered-but-equivalent
	// specs share one baseline.
	if j.CanonInject, err = inject.Canonicalize(req.Inject); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return j, 0, nil
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !a.decode(w, r, &req) {
		return
	}
	if req.Trace && !a.cfg.TraceJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%s does not record per-cycle traces; submit trace=true jobs to a worker directly", a.cfg.Service))
		return
	}
	j, status, err := a.buildJob(&req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	// Adopt the caller's trace context or start a fresh root; a
	// malformed header is never a 400.
	sc, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	id, echo, err := a.ex.Submit(j, sc)
	if err != nil {
		a.refuse(w, err)
		return
	}
	w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(echo))
	WriteJSON(w, http.StatusAccepted, SubmitResponse{
		ID:            id,
		Status:        StateQueued,
		ProgramSHA256: j.Digest,
		CacheHit:      j.CacheHit,
	})
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := a.ex.Status(r.PathValue("id"))
	if err != nil {
		a.refuse(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// apiMetrics is the shared handlers' metric family, registered under
// the daemon's prefix (ximdd_, ximdc_).
type apiMetrics struct {
	sweeps            *obs.Counter
	sweepTasks        *obs.Counter
	archiveAppends    *obs.Counter
	archiveAppendErrs *obs.Counter
	archiveQueries    *obs.Counter
	regress           *obs.Counter
	regressFailed     *obs.Counter
	archiveAppendSecs *obs.Histogram
}

func newAPIMetrics(reg *obs.Registry, prefix string, arch *archive.Archive) *apiMetrics {
	m := &apiMetrics{
		sweeps:            reg.Counter(prefix+"_sweeps_total", "Sweep requests accepted (synchronous and detached)."),
		sweepTasks:        reg.Counter(prefix+"_sweep_tasks_total", "Variants of accepted sweep requests."),
		archiveAppends:    reg.Counter(prefix+"_archive_appends_total", "Records appended to the durable run archive."),
		archiveAppendErrs: reg.Counter(prefix+"_archive_append_errors_total", "Archive appends that failed (record dropped, run unaffected)."),
		archiveQueries:    reg.Counter(prefix+"_archive_queries_total", "GET /v1/runs archive queries served."),
		regress:           reg.Counter(prefix+"_regress_total", "POST /v1/regress gate evaluations."),
		regressFailed:     reg.Counter(prefix+"_regress_failed_total", "Regression gate evaluations that did not pass."),
		archiveAppendSecs: reg.Histogram(prefix+"_archive_append_seconds", "Durable run archive append latency (frame write + fsync).", latencyBuckets),
	}
	if arch != nil {
		reg.GaugeFunc(prefix+"_archive_records", "Records indexed in the durable run archive.",
			func() float64 { return float64(arch.Len()) })
	}
	return m
}
