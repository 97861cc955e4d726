package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ximd/internal/archive"
	"ximd/internal/ckpt"
	"ximd/internal/obs"
	"ximd/internal/runner"
	"ximd/internal/sweep"
	"ximd/internal/trace"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → done|failed; a terminal job never changes again.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// job is the manager's record of one submitted simulation. The
// embedded Job's Req is kept for the write-ahead journal: an
// "accepted" record carries it verbatim so a restarted process can
// rebuild this job.
type job struct {
	*Job
	id string
	// ckptKey binds this job's durable checkpoints to its identity (a
	// digest of the canonical request JSON). A checkpoint on disk whose
	// Key differs belongs to a different run and must not be restored.
	// Empty when the manager keeps no checkpoints.
	ckptKey string
	// ckpt is the recovered checkpoint to resume from, set only on jobs
	// rebuilt by crash recovery that had a valid checkpoint on disk.
	ckpt *ckpt.Checkpoint

	// Distributed-tracing spans for this job's lifecycle. span is the
	// job root (adopted from the request's X-Ximd-Trace header, or a
	// fresh root); qwSpan and execSpan are its queue_wait and execute
	// children. All nil-safe — a job built without a span traces
	// nothing. Distinct from the frozen SpanLine breakdown below, which
	// is the byte-compatible flat view.
	span     *obs.Span
	qwSpan   *obs.Span
	execSpan *obs.Span

	// Mutated under the manager's lock only. The time.Time fields keep
	// their monotonic reading (they are only ever subtracted, never
	// serialized), so span durations are immune to wall-clock steps.
	submitted time.Time
	started   time.Time
	state     State
	err       error
	doc       *runner.ResultDoc
	// archDoc is the archived document: doc with the stall-attribution
	// profile always attached. A finished job keeps only its documents,
	// never the run's memory image.
	archDoc   *runner.ResultDoc
	recs      []trace.Record
	flightRec []trace.Record
	spans     []SpanLine
	queuedMS  float64
	runMS     float64
}

// manager owns the job table, the bounded submission queue, the worker
// pool, and the decoded-program cache. Per-job execution is layered on
// internal/sweep: each job runs as a single-task sweep with the
// configured TaskTimeout, inheriting sweep's panic recovery and
// deadline semantics.
type manager struct {
	queueDepth int
	workers    int
	jobTimeout time.Duration

	mu     sync.Mutex
	jobs   map[string]*job
	nextID uint64
	queue  chan *job
	closed bool
	cache  *progCache

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// met is the per-server metrics registry, surfaced raw at /metrics
	// and through the legacy /varz view.
	met *serveMetrics

	// arch is the durable run archive (nil = disabled); terminal jobs
	// are appended through api at completion.
	arch *archive.Archive
	api  *API

	// Durable job state (nil = disabled): jnl is the write-ahead job
	// journal, ckpts the per-job checkpoint store, ckptEvery the
	// snapshot interval in cycles. Set before the workers start and
	// never reassigned.
	jnl       *journal
	ckpts     *ckpt.Store
	ckptEvery uint64

	// Distributed tracing: tr mints lifecycle spans into spanStore,
	// which GET /v1/traces serves. Both are always on — the store is a
	// bounded ring and span work happens only at phase boundaries.
	tr        *obs.Tracer
	spanStore *obs.SpanStore

	// now is the clock for job timestamps, swappable in tests. It is
	// only read under mu; the time.Time values it returns are only ever
	// subtracted, so with the real clock span durations ride the
	// monotonic reading and are immune to wall-clock steps. Durations
	// are additionally clamped non-negative (see ms) so a clock that
	// does step — or a fake without a monotonic reading — can never
	// produce negative queued_ms/run_ms.
	now func() time.Time
}

func newManager(opts Options) *manager {
	m := &manager{
		queueDepth: opts.QueueDepth,
		workers:    opts.Workers,
		jobTimeout: opts.JobTimeout,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, opts.QueueDepth),
		met:        newServeMetrics(),
		arch:       opts.Archive,
		now:        time.Now,
	}
	m.spanStore = obs.NewSpanStore(0)
	m.tr = obs.NewTracer("ximdd", m.spanStore)
	m.met.queueCapacity.Set(int64(opts.QueueDepth))
	m.met.workers.Set(int64(opts.Workers))
	m.met.reg.GaugeFunc("ximdd_queue_depth", "Jobs currently buffered in the submission queue channel.",
		func() float64 { return float64(len(m.queue)) })
	m.met.reg.GaugeFunc("ximdd_cache_entries", "Decoded programs currently cached.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.cache.len())
		})
	m.cache = newProgCache(opts.CacheEntries, m.met.cacheHits, m.met.cacheMisses)
	m.rootCtx, m.cancel = context.WithCancel(context.Background())
	return m
}

// start launches the worker pool. Separate from newManager so the
// caller can attach durable job state (journal, checkpoint store,
// recovered jobs) before any worker can observe it.
func (m *manager) start() {
	m.wg.Add(m.workers)
	for i := 0; i < m.workers; i++ {
		go m.worker()
	}
}

// loadProgram resolves the submitted program bytes through the
// decoded-program cache: a hit reuses the shared pre-decoded program,
// a miss pays the assemble+validate+predecode cost once and populates
// the cache. Returns the program, its content hash, and whether this
// was a hit.
func (m *manager) loadProgram(arch runner.Arch, source []byte) (*runner.Program, string, bool, error) {
	key := programKey(arch, source)
	m.mu.Lock()
	prog, ok := m.cache.get(key)
	m.mu.Unlock()
	if ok {
		return prog, key, true, nil
	}
	prog, err := runner.Load(arch, source)
	if err != nil {
		return nil, key, false, err
	}
	m.mu.Lock()
	m.cache.put(key, prog)
	m.mu.Unlock()
	return prog, key, false, nil
}

// submit enqueues a prepared job. It fails with ErrShuttingDown after
// Shutdown began and ErrQueueFull when the bounded queue is at
// capacity — the caller maps those to 503 and 429. With durable job
// state enabled, the "accepted" journal record is fsynced before the
// job becomes visible anywhere: a 202 response is a promise the job
// survives kill -9, so the write-ahead append has to precede it. The
// capacity check moves ahead of the append (only this function sends
// on the queue, and it holds the lock, so the later send cannot
// block): a 429'd submission must not leave a journaled ghost for
// recovery to replay.
func (m *manager) submit(j *job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.met.rejectedClosed.Inc()
		return ErrShuttingDown
	}
	if len(m.queue) == cap(m.queue) {
		m.met.rejectedFull.Inc()
		return ErrQueueFull
	}
	m.nextID++
	j.id = "j-" + strconv.FormatUint(m.nextID, 10)
	if m.jnl != nil {
		if _, err := m.jnl.append(journalRecord{T: journalAccepted, ID: j.id, Req: &j.Req}); err != nil {
			// The durability promise cannot be kept; reject rather than
			// accept a job a crash would silently lose.
			return fmt.Errorf("serve: write-ahead journal: %w", err)
		}
	}
	j.state = StateQueued
	j.submitted = m.now()
	// Span setup happens before the channel send: once the job is on the
	// queue a worker may race to setRunning, which finishes qwSpan.
	j.span.SetAttr("job_id", j.id)
	j.qwSpan = j.span.Child("queue_wait")
	m.queue <- j
	m.jobs[j.id] = j
	m.met.jobsTotal.Inc()
	m.met.queued.Add(1)
	return nil
}

// submitSweep admits a detached sweep's jobs atomically: the whole
// batch fits the queue or none of it is accepted (ErrQueueFull). Each
// job goes through the same acceptance protocol as a single submit —
// id assignment, write-ahead journaling, enqueue — under one critical
// section. Every job's span carries sweepID before it hits the queue,
// where a worker may finish it (and freeze its spans) at once.
func (m *manager) submitSweep(jobs []*job, sweepID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.met.rejectedClosed.Inc()
		return ErrShuttingDown
	}
	if len(m.queue)+len(jobs) > cap(m.queue) {
		m.met.rejectedFull.Inc()
		return ErrQueueFull
	}
	for i, j := range jobs {
		m.nextID++
		j.id = "j-" + strconv.FormatUint(m.nextID, 10)
		if m.jnl != nil {
			if _, err := m.jnl.append(journalRecord{T: journalAccepted, ID: j.id, Req: &j.Req}); err != nil {
				// The batch's earlier "accepted" records are already
				// durable but their jobs were not enqueued; journal them
				// terminal so a crash-restart does not replay half a sweep
				// the client was told failed.
				for _, prev := range jobs[:i] {
					_, _ = m.jnl.append(journalRecord{T: journalTerminal, ID: prev.id})
				}
				return fmt.Errorf("serve: write-ahead journal: %w", err)
			}
		}
	}
	for _, j := range jobs {
		j.state = StateQueued
		j.submitted = m.now()
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("sweep_id", sweepID)
		j.qwSpan = j.span.Child("queue_wait")
		m.queue <- j
		m.jobs[j.id] = j
		m.met.jobsTotal.Inc()
		m.met.queued.Add(1)
	}
	return nil
}

// The manager is ximdd's Executor: jobs run in-process on the worker
// pool, synchronous batches on the sweep engine.

// Load resolves program bytes through the decoded-program cache,
// recording the resolution time in the hit- or miss-labelled series.
func (m *manager) Load(arch runner.Arch, source []byte) (*runner.Program, string, bool, error) {
	start := time.Now()
	prog, key, hit, err := m.loadProgram(arch, source)
	if err == nil {
		m.met.observeDecode(time.Since(start), hit)
	}
	return prog, key, hit, err
}

// newJob wraps a validated Job in the manager's record, binding it to
// its checkpoints when the manager keeps them.
func (m *manager) newJob(pj *Job, span *obs.Span) *job {
	j := &job{Job: pj, span: span}
	if m.ckpts != nil {
		j.ckptKey = checkpointKey(&pj.Req)
	}
	return j
}

// Submit admits one job. Its span is the job root, adopted from the
// caller's context (a coordinator's placement) or a fresh root.
func (m *manager) Submit(pj *Job, sc obs.SpanContext) (string, obs.SpanContext, error) {
	span := m.tr.Adopt(sc, "job")
	span.SetAttr("digest", pj.Digest)
	span.SetAttr("arch", string(pj.Arch))
	decode := span.Child("decode")
	if pj.CacheHit {
		decode.SetAttr("cache", "hit")
	} else {
		decode.SetAttr("cache", "miss")
	}
	decode.FinishWith(pj.decodeDur)
	j := m.newJob(pj, span)
	if err := m.submit(j); err != nil {
		span.SetAttr("error", err.Error())
		span.Finish()
		return "", obs.SpanContext{}, err
	}
	return j.id, span.Context(), nil
}

// SubmitSweep admits a detached sweep's jobs atomically, each rooting
// its lifecycle subtree under span.
func (m *manager) SubmitSweep(pjs []*Job, sweepID string, span *obs.Span) ([]string, error) {
	jobs := make([]*job, len(pjs))
	for i, pj := range pjs {
		jobs[i] = m.newJob(pj, span.Child("job"))
	}
	if err := m.submitSweep(jobs, sweepID); err != nil {
		return nil, err
	}
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	return ids, nil
}

// RunBatch runs the jobs over the sweep engine's worker pool — not the
// job queue — with one "variant" span per task. Outcomes carry the
// fully profiled document the archive keeps.
func (m *manager) RunBatch(jobs []*Job, span *obs.Span) ([]Outcome, []string) {
	docs := make([]*runner.ResultDoc, len(jobs))
	tasks := make([]sweep.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = sweep.Task{Name: j.Name, Run: func(ctx context.Context) (sweep.Outcome, error) {
			vs := span.Child("variant")
			vs.SetAttr("name", j.Name)
			res, err := runner.Run(ctx, j.prog, j.spec, runner.Options{Span: vs})
			if err != nil {
				vs.SetAttr("error", err.Error())
				vs.Finish()
				return sweep.Outcome{}, err
			}
			vs.Finish()
			doc := runner.NewResultDoc(res, j.peeks, true)
			docs[i] = &doc
			return sweep.Outcome{Cycles: res.Cycles, Stats: res.Stats}, nil
		}}
	}
	results, _ := sweep.Run(m.rootCtx, tasks, sweep.Options{
		Workers:     m.workers,
		TaskTimeout: m.jobTimeout,
	})
	outs := make([]Outcome, len(jobs))
	for i, res := range results {
		m.met.cyclesSimmed.Add(res.Cycles)
		m.met.sweepTask.Observe(res.Duration.Seconds())
		outs[i].ExitCode = runner.ExitCode(res.Err)
		if res.Err != nil {
			// A failed task may have raced its document into place
			// before the deadline fired; the failure verdict wins.
			outs[i].Err = res.Err.Error()
		} else {
			outs[i].Result = docs[i]
		}
	}
	return outs, nil
}

// Status reports one job; the result document, timings and exit code
// appear once it is terminal.
func (m *manager) Status(id string) (*JobStatus, error) {
	j, err := m.get(id)
	if err != nil {
		return nil, err
	}
	v := m.snapshot(j)
	st := &JobStatus{
		ID:            j.id,
		Status:        v.state,
		ProgramSHA256: j.Digest,
		CacheHit:      j.CacheHit,
		Result:        v.doc,
		QueuedMS:      v.queuedMS,
		RunMS:         v.runMS,
	}
	if v.state == StateDone || v.state == StateFailed {
		code := runner.ExitCode(v.err)
		st.ExitCode = &code
	}
	if v.err != nil {
		st.Error = v.err.Error()
	}
	for i := range v.flight {
		st.Flight = append(st.Flight, traceLine(&v.flight[i]))
	}
	return st, nil
}

// requeue re-enqueues one crash-recovered job under its original id —
// clients polling that id across the restart keep getting answers. No
// journal append: the job's "accepted" record is exactly what replay
// just read. The caller sized the queue to hold the full recovered
// set, so the send cannot block.
func (m *manager) requeue(j *job, id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.id = id
	j.state = StateQueued
	j.submitted = m.now()
	j.span.SetAttr("job_id", j.id)
	j.qwSpan = j.span.Child("queue_wait")
	m.queue <- j
	m.jobs[j.id] = j
	m.met.jobsTotal.Inc()
	m.met.queued.Add(1)
}

// worker drains the queue until it is closed, executing each job as a
// single-task sweep so per-job deadlines (TaskTimeout) and panic
// recovery come from the sweep engine.
func (m *manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.setRunning(j)
		if m.jnl != nil {
			// Advisory: a lost "started" record only costs recovery the
			// requeued-vs-rerun distinction, never correctness, so an
			// append failure does not block the run.
			_, _ = m.jnl.append(journalRecord{T: journalStarted, ID: j.id})
		}
		ropts := runner.Options{
			Trace:        j.Req.Trace,
			FlightCycles: j.flight,
			Span:         j.execSpan,
		}
		if m.ckpts != nil && !j.Req.Trace {
			// Traced jobs never checkpoint: a resumed run cannot
			// reconstruct the pre-crash trace records, so recovery reruns
			// them cold instead (deterministic, so the client cannot tell).
			ropts.CheckpointEvery = m.ckptEvery
			ropts.Checkpoint = func(c *ckpt.Checkpoint) { m.saveCheckpoint(j, c) }
		}
		// The job hands its recovered checkpoint (a memory image) to
		// this run and keeps no reference to it.
		from := j.ckpt
		j.ckpt = nil
		var res runner.Result
		task := sweep.Task{Name: j.id, Run: func(ctx context.Context) (sweep.Outcome, error) {
			var err error
			if from != nil {
				res, err = runner.Resume(ctx, j.prog, j.spec, ropts, from)
				var ue *runner.UsageError
				if errors.As(err, &ue) {
					// The checkpoint did not fit the rebuilt machine
					// (format drift the Key check could not see). The
					// determinism contract makes rerunning from cycle 0
					// indistinguishable, minus the saved work.
					m.met.jobsColdRun.Inc()
					j.execSpan.SetAttr("cold_rerun", "checkpoint_rejected")
					res, err = runner.Run(ctx, j.prog, j.spec, ropts)
				}
			} else {
				res, err = runner.Run(ctx, j.prog, j.spec, ropts)
			}
			if err != nil {
				return sweep.Outcome{}, err
			}
			return sweep.Outcome{Cycles: res.Cycles, Stats: res.Stats}, nil
		}}
		results, _ := sweep.Run(m.rootCtx, []sweep.Task{task}, sweep.Options{
			Workers:     1,
			TaskTimeout: m.jobTimeout,
		})
		m.finish(j, res, results[0].Err, results[0].Duration)
	}
}

// saveCheckpoint persists one periodic snapshot, stamping the job's
// binding key first. Failures degrade resumability, never the run.
func (m *manager) saveCheckpoint(j *job, c *ckpt.Checkpoint) {
	c.Key = j.ckptKey
	start := time.Now()
	n, err := m.ckpts.Save(j.id, c)
	m.met.ckptSaveSecs.Observe(time.Since(start).Seconds())
	if err != nil {
		m.met.ckptErrs.Inc()
		return
	}
	m.met.ckptWrites.Inc()
	m.met.ckptBytes.Add(uint64(n))
}

func (m *manager) setRunning(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.qwSpan.Finish()
	j.execSpan = j.span.Child("execute")
	j.state = StateRunning
	j.started = m.now()
	wait := j.started.Sub(j.submitted)
	if wait < 0 {
		wait = 0
	}
	j.queuedMS = ms(wait)
	m.met.queueWait.Observe(wait.Seconds())
	m.met.queued.Add(-1)
	m.met.running.Add(1)
}

// ms converts a duration to fractional milliseconds for span docs,
// clamping negatives to zero: a wall-clock step between two reads of a
// non-monotonic clock must never surface as a negative queued_ms or
// run_ms.
func ms(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond)
}

// finish freezes a job's result documents — the client's and the
// archive's — and span breakdown (built once, so repeated GETs serve
// identical bytes), drops the run's memory image, archives the outcome,
// and only then publishes the terminal state. The ordering is the
// point: a client that observes done/failed may rely on the durable
// archive (and its /metrics counters) already containing the run — the
// status flip is the last thing that happens, never concurrent with
// the fsync'd append. Frozen fields stay invisible to pollers in the
// meantime because snapshot/traceRecords/spanLines gate on the state.
func (m *manager) finish(j *job, res runner.Result, err error, execDur time.Duration) {
	m.mu.Lock()
	j.err = err
	j.recs = res.Trace
	j.flightRec = res.Flight
	j.runMS = ms(execDur)
	total := m.now().Sub(j.submitted)
	if total < 0 {
		total = 0
	}
	detail := "cache_miss"
	if j.CacheHit {
		detail = "cache_hit"
	}
	j.spans = []SpanLine{
		{Span: "queue_wait", Ms: j.queuedMS},
		{Span: "decode", Ms: ms(j.decodeDur), Detail: detail},
		{Span: "execute", Ms: j.runMS},
		{Span: "total", Ms: ms(total)},
	}
	if err == nil {
		doc := runner.NewResultDoc(res, j.peeks, j.Req.Profile)
		j.doc = &doc
		if m.arch != nil {
			// Archive the full document with the stall-attribution
			// profile attached even when the client did not ask for one:
			// the baseline should carry everything the gate can compare.
			adoc := runner.NewResultDoc(res, j.peeks, true)
			j.archDoc = &adoc
		}
	}
	m.mu.Unlock()

	j.execSpan.Finish()
	if m.arch != nil {
		as := j.span.Child("archive_append")
		m.archiveJob(j)
		as.Finish()
	} else {
		m.archiveJob(j)
	}

	// Freeze the job's trace-tree root before the terminal flip, so a
	// client that observes done/failed can immediately fetch the full
	// tree from /v1/traces/{id}.
	if err != nil {
		j.span.SetAttr("state", string(StateFailed))
		j.span.SetAttr("error", err.Error())
	} else {
		j.span.SetAttr("state", string(StateDone))
	}
	j.span.SetAttrInt("cycles", res.Cycles)
	j.span.Finish()

	// Durable terminal protocol, still before the state flip: journal
	// the terminal record, then delete the checkpoint. A crash between
	// the two replays the job as terminal (correct — the archive append
	// above already happened) and recovery sweeps the orphaned
	// checkpoint file. The reverse order could journal nothing and
	// delete the checkpoint, downgrading a resumable job to a cold
	// rerun — safe too, but strictly worse.
	if m.jnl != nil {
		if wantCompact, err := m.jnl.append(journalRecord{T: journalTerminal, ID: j.id}); err == nil && wantCompact {
			_ = m.jnl.compact(m.pendingForJournal())
		}
	}
	if m.ckpts != nil {
		if err := m.ckpts.Delete(j.id); err != nil {
			m.met.ckptErrs.Inc()
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.running.Add(-1)
	m.met.cyclesSimmed.Add(res.Cycles)
	m.met.execute.Observe(execDur.Seconds())
	m.met.total.Observe(total.Seconds())
	if err != nil {
		j.state = StateFailed
		m.met.jobsFailed.Inc()
		return
	}
	j.state = StateDone
	m.met.jobsDone.Inc()
}

// archiveJob appends a terminal job's outcome to the durable run
// archive. No-op when archiving is disabled; an append failure is
// counted in metrics but never alters the job's outcome — archiving is
// an observer of the run, not a participant.
func (m *manager) archiveJob(j *job) {
	if m.arch == nil {
		return
	}
	m.mu.Lock()
	rec := archive.Record{
		Key:      j.archiveKey(),
		ExitCode: runner.ExitCode(j.err),
		UnixMS:   m.now().UnixMilli(),
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	rec.Result = j.archDoc
	for _, sp := range j.spans {
		rec.Spans = append(rec.Spans, archive.Span{Name: sp.Span, Ms: sp.Ms, Detail: sp.Detail})
	}
	m.mu.Unlock()
	m.api.Record(rec)
}

// get returns the job record for id.
func (m *manager) get(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// statusView is the lock-consistent copy of everything a status
// response needs. The duration fields are only set once the job is
// terminal (they are frozen in finish, so repeated polls serve
// identical bytes); flight is only set for failed jobs — the flight
// recorder is a postmortem artifact, and a successful run's window is
// dropped.
type statusView struct {
	state    State
	doc      *runner.ResultDoc
	err      error
	queuedMS *float64
	runMS    *float64
	flight   []trace.Record
}

// snapshot copies the fields a status response needs under the lock.
func (m *manager) snapshot(j *job) statusView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := statusView{state: j.state}
	if j.state == StateDone || j.state == StateFailed {
		v.doc, v.err = j.doc, j.err
		q, r := j.queuedMS, j.runMS
		v.queuedMS, v.runMS = &q, &r
	}
	if j.state == StateFailed {
		v.flight = j.flightRec
	}
	return v
}

// traceRecords returns the captured trace once a job is terminal.
func (m *manager) traceRecords(j *job) (State, []trace.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.state, j.recs
}

// spanLines returns the frozen span breakdown once a job is terminal.
func (m *manager) spanLines(j *job) (State, []SpanLine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.state, j.spans
}

// pendingForJournal snapshots the live (non-terminal) job set in id
// order for journal compaction. A job racing from queued to running
// around this snapshot may lose its "started" record to the rewrite;
// recovery tolerates that — it probes the checkpoint store for every
// pending job, started or not.
func (m *manager) pendingForJournal() []replayJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []replayJob
	for _, j := range m.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			out = append(out, replayJob{id: j.id, req: j.Req, started: j.state == StateRunning})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		na, _ := strconv.ParseUint(strings.TrimPrefix(out[a].id, "j-"), 10, 64)
		nb, _ := strconv.ParseUint(strings.TrimPrefix(out[b].id, "j-"), 10, 64)
		return na < nb
	})
	return out
}

// ShuttingDown reports whether Shutdown has begun.
func (m *manager) ShuttingDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown drains gracefully: new submissions are rejected immediately,
// queued and running jobs are completed, and the call returns when the
// workers are idle. If ctx expires first, the in-flight runs are
// cancelled (they abort at their next cooperative check and are marked
// failed with the cancellation error — never dropped, never rerun) and
// the context error is returned.
func (m *manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
		m.cancel()
	case <-ctx.Done():
		m.cancel()
		<-idle
		err = ctx.Err()
	}
	// Workers are idle: release the durable-state handles. Everything
	// they guarded is already fsynced.
	if m.jnl != nil {
		m.jnl.close()
	}
	if m.ckpts != nil {
		m.ckpts.Close()
	}
	return err
}
