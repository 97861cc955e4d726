// Package serve is the simulation-as-a-service layer: it turns the
// one-shot simulators into a long-lived HTTP/JSON daemon (cmd/ximdd)
// with a bounded job queue, a worker pool layered on internal/sweep,
// a content-addressed decoded-program cache, explicit backpressure,
// and graceful drain on shutdown. Everything is stdlib-only.
//
// The job API is one handler set (API, api.go) over an Executor. ximdd
// runs it over the local manager; the fleet coordinator ximdc
// (internal/fabric) runs the same handlers over its fleet dispatcher,
// so both daemons validate, refuse and answer alike. Endpoints marked
// [ximdd] are the worker daemon's alone.
//
// API:
//
//	POST /v1/jobs            submit a simulation; 202 + job id,
//	                         429 + Retry-After when the queue is full,
//	                         400 for malformed programs/specs (assembler
//	                         diagnostics with line numbers pass through),
//	                         413 for an oversized program, 503 +
//	                         Retry-After while shutting down
//	GET  /v1/jobs/{id}       job status + result document when terminal
//	GET  /v1/jobs/{id}/trace [ximdd] per-cycle trace as NDJSON
//	                         (trace=true jobs)
//	GET  /v1/jobs/{id}/spans [ximdd] span breakdown (queue wait,
//	                         decode, execute, total) as NDJSON once
//	                         terminal
//	GET  /v1/traces          distributed-trace summaries (newest first;
//	                         ?job= ?sweep= ?digest= ?min_ms= filters)
//	GET  /v1/traces/{id}     one trace's assembled span tree as NDJSON,
//	                         depth-first with a computed depth field
//	POST /v1/sweeps          synchronous batch fan-out; results in
//	                         submission order. With "detach":true the
//	                         variants are admitted atomically as regular
//	                         jobs and the response is 202 with a sweep
//	                         id + per-variant job ids
//	GET  /v1/sweeps/{id}     sweep status: per-variant job ids and
//	                         terminal states
//	GET  /v1/runs            cross-run history from the durable run
//	                         archive (digest/arch/seed/inject/limit
//	                         filters); 404 without -archive
//	POST /v1/regress         re-run a batch and diff it against the
//	                         archived baselines; 404 without -archive
//	GET  /healthz            combined health ("ok", 503 while draining;
//	                         byte-compatible with earlier releases)
//	GET  /livez              process liveness (always 200 "ok")
//	GET  /readyz             routing readiness (503 "draining" during
//	                         graceful shutdown)
//	POST /v1/fabric/lease    [ximdd] fabric coordinator registration and
//	                         heartbeat (exclusive TTL lease + load report)
//	GET  /metrics            Prometheus text exposition (internal/obs)
//	GET  /varz               [ximdd] queue/job/cache/cycle metrics — the
//	                         legacy JSON view over the same registry,
//	                         key- and byte-compatible with the old expvar
//	                         output
//
// Distributed tracing: every POST /v1/jobs starts (or, when the
// request carries an X-Ximd-Trace header, adopts) a trace whose span
// tree covers the full lifecycle — queue wait, decode, execute with
// the runner's build/restore/run/checkpoint phases, archive append.
// The header value is "<trace id>-<parent span id>"; a malformed
// header silently starts a fresh root (propagation must never fail a
// request), and the 202 response echoes the trace context back in the
// same header.
//
// Determinism contract: a job's result document is a pure function of
// (program bytes, arch, seed, inject spec, pokes, max_cycles). The
// response carries no timestamps or host state, so resubmitting the
// same job yields byte-identical result JSON whether it is served cold
// or from the decoded-program cache. Wall-clock measurement (the
// queued_ms/run_ms status fields, the span breakdown, the latency
// histograms) lives strictly outside the result document.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"ximd/internal/archive"
	"ximd/internal/ckpt"
	"ximd/internal/runner"
	"ximd/internal/trace"
)

// Options configures a Server. The zero value selects sane defaults.
type Options struct {
	// QueueDepth bounds the submission queue; a full queue answers 429.
	// <= 0 selects 64.
	QueueDepth int
	// Workers is the number of concurrent job executors; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// JobTimeout is the per-job deadline, enforced through the sweep
	// engine's TaskTimeout; <= 0 selects 30s.
	JobTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses; <= 0 selects 1s.
	RetryAfter time.Duration
	// CacheEntries caps the decoded-program cache; <= 0 selects 256.
	CacheEntries int
	// MaxSourceBytes caps a submitted program; <= 0 selects 1 MiB.
	MaxSourceBytes int64
	// MaxSweepTasks caps one sweep request's fan-out; <= 0 selects 1024.
	MaxSweepTasks int
	// MaxConcurrentSweeps bounds simultaneous sweep requests (they run
	// synchronously on the caller's connection); excess answers 429.
	// <= 0 selects 2.
	MaxConcurrentSweeps int
	// Archive, when non-nil, is the durable run archive: terminal jobs
	// and sweep tasks are recorded into it at completion, GET /v1/runs
	// queries it, and POST /v1/regress diffs fresh runs against its
	// baselines. nil disables archiving and both endpoints.
	Archive *archive.Archive
	// StateDir, when non-empty, makes accepted jobs durable: every
	// lifecycle transition is write-ahead journaled to
	// StateDir/jobs.log, running jobs checkpoint periodically into
	// StateDir/ckpt/, and New replays both on startup — jobs in flight
	// at a kill -9 are resumed from their newest checkpoint (or rerun
	// from scratch) under their original ids, with result documents
	// byte-identical to an uninterrupted run. Empty disables durability.
	// cmd/ximdd points this at the -archive directory.
	StateDir string
	// CheckpointEvery is the checkpoint interval in machine cycles for
	// durable jobs; <= 0 selects DefaultCheckpointEvery.
	CheckpointEvery uint64
}

// DefaultCheckpointEvery is the default checkpoint interval: well
// under a second of simulated work at the measured ~40-100ns/cycle, so
// a crash loses at most that much progress. The dominant save cost is
// the full-memory snapshot copy (milliseconds), not the sparse wire
// encode or the fsync; ~8M cycles between saves keeps the measured
// overhead under the 2% budget (BenchmarkRunCheckpointDefault) with
// comfortable margin.
const DefaultCheckpointEvery = 1 << 23

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 30 * time.Second
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.MaxSweepTasks <= 0 {
		o.MaxSweepTasks = 1024
	}
	if o.MaxConcurrentSweeps <= 0 {
		o.MaxConcurrentSweeps = 2
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

// Server is the simulation service. Create with New, mount Handler on
// an http.Server, and drain with Shutdown.
type Server struct {
	opts     Options
	mgr      *manager
	api      *API
	mux      *http.ServeMux
	recovery RecoveryInfo

	// workerID and lease are the fabric worker identity: the id is
	// minted per process and reported on every lease response, the
	// lease state arbitrates which coordinator owns this worker.
	workerID string
	lease    leaseState
}

// RecoveryInfo summarizes what New's crash recovery found in
// Options.StateDir. cmd/ximdd logs it at startup.
type RecoveryInfo struct {
	// Requeued jobs were journaled as accepted but left no usable
	// checkpoint and had not started; they rerun from scratch in their
	// original acceptance order.
	Requeued int
	// Resumed jobs restored a valid checkpoint and continue mid-run.
	Resumed int
	// ColdRerun jobs had started (or left checkpoint debris) but no
	// usable checkpoint survived — missing, torn, stale key, or wrong
	// format version — so they rerun from cycle 0.
	ColdRerun int
	// Dropped jobs could not be rebuilt from their journaled request
	// (which cannot happen for requests this binary accepted; it guards
	// against a downgraded binary replaying a newer journal). They are
	// journaled terminal and forgotten.
	Dropped int
	// Err is the reason durability is disabled when the journal or
	// checkpoint store could not be opened; nil otherwise. The server
	// still runs, volatile, exactly as with no StateDir.
	Err error
}

// Recovery reports what crash recovery did during New.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// New builds a Server, recovers durable job state if Options.StateDir
// is set, and starts the worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		workerID: newWorkerID(),
	}

	var (
		jnl     *journal
		store   *ckpt.Store
		pending []replayJob
		maxID   uint64
	)
	if opts.StateDir != "" {
		var err error
		store, err = ckpt.OpenStore(filepath.Join(opts.StateDir, "ckpt"))
		if err == nil {
			jnl, pending, maxID, err = openJournal(filepath.Join(opts.StateDir, "jobs.log"))
		}
		if err != nil {
			// Run volatile rather than not at all; the caller decides
			// whether that is acceptable (cmd/ximdd refuses).
			s.recovery.Err = err
			jnl, store, pending = nil, nil, nil
		}
	}
	// The queue must have room for the entire recovered backlog — those
	// jobs were already accepted once and must not bounce off a 429.
	if opts.QueueDepth < len(pending) {
		opts.QueueDepth = len(pending)
	}
	s.opts = opts
	s.mgr = newManager(opts)
	s.mgr.jnl, s.mgr.ckpts, s.mgr.ckptEvery = jnl, store, opts.CheckpointEvery
	s.api = NewAPI(APIConfig{
		Service:             "ximdd",
		Executor:            s.mgr,
		Archive:             opts.Archive,
		Metrics:             s.mgr.met.reg,
		Tracer:              s.mgr.tr,
		Spans:               s.mgr.spanStore,
		TraceJobs:           true,
		MaxSourceBytes:      opts.MaxSourceBytes,
		RetryAfter:          opts.RetryAfter,
		MaxSweepTasks:       opts.MaxSweepTasks,
		MaxConcurrentSweeps: opts.MaxConcurrentSweeps,
	})
	s.mgr.api = s.api
	if s.mgr.nextID < maxID {
		// Never reissue an id a client may still be polling — even one
		// whose job finished before the crash.
		s.mgr.nextID = maxID
	}
	s.recoverPending(pending)
	s.mgr.start()

	s.api.Register(s.mux)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleSpans)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/fabric/lease", s.handleLease)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	return s
}

// recoverPending rebuilds and re-enqueues the journal's
// accepted-but-not-terminal jobs in their original acceptance order,
// attaching each job's newest valid checkpoint when one survives. The
// checkpoint store is probed for every pending job — not just those
// with a "started" record, which journal compaction can race away —
// and a checkpoint is only trusted if its binding key matches the job
// rebuilt from the journaled request (a stale or foreign checkpoint
// means cold rerun, the always-safe fallback). Checkpoint files for
// ids no longer pending are debris from a crash between the terminal
// journal record and the delete; they are swept here.
func (s *Server) recoverPending(pending []replayJob) {
	if s.mgr.ckpts == nil {
		return
	}
	live := make(map[string]bool, len(pending))
	for _, p := range pending {
		live[p.id] = true
		req := p.req
		pj, _, err := s.api.buildJob(&req)
		if err != nil {
			s.recovery.Dropped++
			_, _ = s.mgr.jnl.append(journalRecord{T: journalTerminal, ID: p.id})
			_ = s.mgr.ckpts.Delete(p.id)
			continue
		}
		// A recovered job starts a fresh trace: its pre-crash spans died
		// with the old process, and the recovered attr records why.
		j := s.mgr.newJob(pj, s.mgr.tr.Root("job"))
		c, cerr := s.mgr.ckpts.Load(p.id)
		switch {
		case cerr == nil && c != nil && c.Key == j.ckptKey && c.Arch == string(j.Arch) && !j.Req.Trace:
			j.ckpt = c
			j.span.SetAttr("recovered", "resumed")
			s.recovery.Resumed++
			s.mgr.met.jobsResumed.Inc()
		case p.started || c != nil || cerr != nil:
			j.span.SetAttr("recovered", "cold_rerun")
			s.recovery.ColdRerun++
			s.mgr.met.jobsColdRun.Inc()
			_ = s.mgr.ckpts.Delete(p.id) // an unusable checkpoint must not linger under the live id
		default:
			j.span.SetAttr("recovered", "requeued")
			s.recovery.Requeued++
			s.mgr.met.jobsRequeued.Inc()
		}
		s.mgr.requeue(j, p.id)
	}
	if ids, err := s.mgr.ckpts.List(); err == nil {
		for _, id := range ids {
			if !live[id] {
				_ = s.mgr.ckpts.Delete(id)
			}
		}
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown gracefully drains the job queue (see manager.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error { return s.mgr.Shutdown(ctx) }

// JobRequest is the body of POST /v1/jobs. Exactly one of Source
// (assembly text) and Image (binary program image, base64 in JSON)
// must be set.
type JobRequest struct {
	// Arch is "ximd" (default) or "vliw".
	Arch string `json:"arch,omitempty"`
	// Source is XIMD assembly text.
	Source string `json:"source,omitempty"`
	// Image is an encoded binary program image.
	Image []byte `json:"image,omitempty"`
	// Seed and Inject select a deterministic fault-injection campaign.
	Seed   int64  `json:"seed,omitempty"`
	Inject string `json:"inject,omitempty"`
	// MaxCycles bounds the run (0 = machine default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TolerateConflicts makes same-cycle write conflicts non-fatal.
	TolerateConflicts bool `json:"tolerate_conflicts,omitempty"`
	// Pokes ("rN=V"), Mem ("ADDR=V,V"), and Peeks ("ADDR:N") reuse the
	// CLI host-configuration grammar (internal/hostcfg).
	Pokes []string `json:"pokes,omitempty"`
	Mem   []string `json:"mem,omitempty"`
	Peeks []string `json:"peeks,omitempty"`
	// Trace records the per-cycle trace, served at /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// Profile attaches the per-FU stall-attribution block to the result
	// document (a derived view of the stats — the result stays
	// deterministic).
	Profile bool `json:"profile,omitempty"`
	// Flight keeps a bounded ring of the last N cycle records and dumps
	// it into the job status if the run fails — a crash postmortem
	// without full-trace cost. Capped at MaxFlightCycles.
	Flight int `json:"flight,omitempty"`
}

// MaxFlightCycles caps a job's flight-recorder window.
const MaxFlightCycles = 1024

// SubmitResponse is the 202 body of POST /v1/jobs.
type SubmitResponse struct {
	ID            string `json:"id"`
	Status        State  `json:"status"`
	ProgramSHA256 string `json:"program_sha256"`
	CacheHit      bool   `json:"cache_hit"`
}

// JobStatus is the body of GET /v1/jobs/{id} on both daemons.
type JobStatus struct {
	ID            string `json:"id"`
	Status        State  `json:"status"`
	ProgramSHA256 string `json:"program_sha256"`
	CacheHit      bool   `json:"cache_hit"`
	// Worker and RemoteID locate a fleet job's current (or final)
	// placement; Attempts counts submissions (requeues re-submit),
	// Stolen whether a duplicate placement raced the original. TraceID
	// names the fleet-wide trace under GET /v1/traces/{trace_id}. ximdc
	// only.
	Worker   string            `json:"worker,omitempty"`
	RemoteID string            `json:"remote_id,omitempty"`
	Attempts int               `json:"attempts,omitempty"`
	Stolen   bool              `json:"stolen,omitempty"`
	TraceID  string            `json:"trace_id,omitempty"`
	Error    string            `json:"error,omitempty"`
	ExitCode *int              `json:"exit_code,omitempty"`
	Result   *runner.ResultDoc `json:"result,omitempty"`
	// QueuedMS and RunMS are monotonic-clock measurements (queue wait
	// and execution time), present once the job is terminal. They live
	// beside — never inside — the result document, which must stay a
	// pure function of the job inputs.
	QueuedMS *float64 `json:"queued_ms,omitempty"`
	RunMS    *float64 `json:"run_ms,omitempty"`
	// Flight is the flight-recorder window (last flight=N cycles),
	// present only for failed jobs that requested one.
	Flight []TraceLine `json:"flight,omitempty"`
}

// checkpointKey digests the canonical request JSON into the string
// that binds a durable checkpoint to its run. The journal stores the
// request and recovery rebuilds the job from it, so both sides derive
// the key from the same bytes: json.Marshal of the struct is
// deterministic (fixed field order, no maps), which makes the key
// stable across processes. Anything that changes the run's outcome —
// program bytes, arch, seed, inject, pokes, limits — changes the key,
// and a mismatched key demotes resume to a cold rerun.
func checkpointKey(req *JobRequest) string {
	b, err := json.Marshal(req)
	if err != nil {
		// JobRequest marshals unconditionally; see appendJournalFrame.
		panic(fmt.Sprintf("serve: checkpoint key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TraceLine is one NDJSON record of GET /v1/jobs/{id}/trace.
type TraceLine struct {
	Cycle uint64 `json:"cycle"`
	// PC has one entry per FU (XIMD) or a single entry (VLIW).
	PC []uint16 `json:"pc"`
	// CC and SS are the Figure 10 strings ("TFXX", "DBBD"); SS and
	// Partition are empty for VLIW jobs.
	CC        string `json:"cc"`
	SS        string `json:"ss,omitempty"`
	Partition string `json:"partition,omitempty"`
	// Halted has one letter per FU: H for halted, . for live; empty when
	// no FU has halted yet.
	Halted string `json:"halted,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !j.Req.Trace {
		writeError(w, http.StatusNotFound, errors.New("job was submitted without trace=true"))
		return
	}
	state, recs := s.mgr.traceRecords(j)
	if state != StateDone && state != StateFailed {
		s.api.setRetryAfter(w)
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; trace is available once it is terminal", state))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(traceLine(&recs[i])); err != nil {
			return // client went away
		}
	}
}

func traceLine(rec *trace.Record) TraceLine {
	line := TraceLine{
		Cycle: rec.Cycle,
		PC:    make([]uint16, len(rec.PC)),
		CC:    rec.CCString(),
	}
	for i, pc := range rec.PC {
		line.PC[i] = uint16(pc)
	}
	if len(rec.SS) > 0 {
		line.SS = rec.SSString()
		line.Partition = rec.Partition.String()
	}
	any := false
	halted := make([]byte, len(rec.Halted))
	for i, h := range rec.Halted {
		if h {
			halted[i] = 'H'
			any = true
		} else {
			halted[i] = '.'
		}
	}
	if any {
		line.Halted = string(halted)
	}
	return line
}

// SpanLine is one NDJSON record of GET /v1/jobs/{id}/spans: a named
// phase of the job's wall-clock lifetime in fractional milliseconds.
// Spans are "queue_wait" (acceptance to execution start), "decode"
// (program resolution at submit; Detail says whether the decoded-
// program cache hit), "execute" (the run itself, as measured by the
// sweep engine), and "total" (acceptance to terminal state).
type SpanLine struct {
	Span   string  `json:"span"`
	Ms     float64 `json:"ms"`
	Detail string  `json:"detail,omitempty"`
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	state, spans := s.mgr.spanLines(j)
	if state != StateDone && state != StateFailed {
		s.api.setRetryAfter(w)
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; spans are available once it is terminal", state))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(spans[i]); err != nil {
			return // client went away
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.ShuttingDown() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleVarz serves the legacy metrics view: the same key set and the
// same rendering the old expvar.Map-backed handler produced, now
// projected from the obs registry (see varzJSON).
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, s.mgr.varzJSON())
}
