package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ximd/internal/archive"
	"ximd/internal/obs"
	"ximd/internal/runner"
	"ximd/internal/serve"
)

// cjob is one fabric job: a single (program, seed, inject) run with a
// coordinator-assigned stable id. The id never changes across
// requeues or steals — a client polling GET /v1/jobs/{id} on the
// coordinator is insulated from worker loss entirely — and because a
// run is a pure function of the request, every execution of a cjob
// anywhere in the fleet produces the same bytes.
type cjob struct {
	id  string
	job *serve.Job
	// doArchive gates the terminal archive append: submitted jobs and
	// detached sweep variants record here; batch runs are recorded (or,
	// for a regression gate, compared) by the shared API.
	doArchive bool
	submitted time.Time
	// span is the coordinator-side "job" span; traceID its trace. Every
	// placement hangs a child off it, and the worker-side subtree is
	// spliced in at finalize by fetching the worker's spans for traceID.
	span    *obs.Span
	traceID string

	mu sync.Mutex
	// state is the coordinator-side view: queued (not yet placed),
	// running (dispatched to a worker), done/failed (terminal).
	state      serve.State
	workerName string
	remoteID   string
	attempts   int
	stolen     bool
	// final is the worker's terminal status (profile-full); errText the
	// terminal error (worker-reported or fabric-level).
	final   *serve.JobStatus
	errText string
	done    chan struct{}
}

func (j *cjob) setDispatched(w *worker, remoteID string) {
	j.mu.Lock()
	j.state = serve.StateRunning
	j.workerName = w.name
	j.remoteID = remoteID
	j.attempts++
	j.mu.Unlock()
}

// startJob registers and launches one fabric job. span is the
// coordinator-side job span (a child of the request/sweep/regress span
// that caused it); startJob owns it from here — it is finished at the
// job's terminal state.
func (c *Coordinator) startJob(job *serve.Job, doArchive bool, span *obs.Span) (*cjob, error) {
	j := &cjob{
		job:       job,
		doArchive: doArchive,
		span:      span,
		traceID:   span.Context().TraceID,
		state:     serve.StateQueued,
		done:      make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		span.SetAttr("error", serve.ErrShuttingDown.Error())
		span.Finish()
		return nil, serve.ErrShuttingDown
	}
	c.nextJob++
	j.id = fmt.Sprintf("c-%d", c.nextJob)
	j.submitted = time.Now()
	c.jobs[j.id] = j
	c.wg.Add(1)
	c.mu.Unlock()
	span.SetAttr("job_id", j.id)
	span.SetAttr("digest", job.Digest)
	c.met.jobsTotal.Inc()
	c.met.jobsInflight.Add(1)
	go c.runJob(j)
	return j, nil
}

// submission is one live placement of a job on a worker. A job
// normally has exactly one; stealing temporarily gives it two, and the
// first to turn terminal wins.
type submission struct {
	w           *worker
	remoteID    string
	queuedSince time.Time
	lastState   serve.State
	fails       int
	// span is the placement span: one per submission, annotated with
	// the worker name/url and finished with a drop_reason when the
	// placement is abandoned (worker_lost, remote_job_gone, poll_errors,
	// superseded) or cleanly when it produced the terminal result.
	span *obs.Span
}

// finishDropped closes a placement span with the reason the placement
// was abandoned.
func (s *submission) finishDropped(reason string) {
	s.span.SetAttr("drop_reason", reason)
	s.span.Finish()
}

// runJob drives one fabric job to a terminal state: route with digest
// affinity, submit, poll; steal onto an idle worker if the assignment
// sits queued too long; requeue onto survivors when a worker is lost.
func (c *Coordinator) runJob(j *cjob) {
	defer c.wg.Done()
	deadline := j.submitted.Add(c.opts.JobTimeout)
	var subs []*submission
	interval := c.opts.PollEvery
	// tried remembers every worker that ever held a placement, lost or
	// not — finalize asks each of them for their side of the trace.
	tried := map[string]*worker{}

	drop := func(i int, reason string) {
		subs[i].w.detach(j.id)
		subs[i].finishDropped(reason)
		subs = append(subs[:i], subs[i+1:]...)
	}

	for {
		select {
		case <-c.rootCtx.Done():
			c.fail(j, serve.ErrShuttingDown.Error())
			return
		default:
		}
		if time.Now().After(deadline) {
			c.fail(j, fmt.Sprintf("fabric: job deadline (%v) exceeded after %d submission(s)", c.opts.JobTimeout, j.attemptsNow()))
			return
		}

		// (Re)submit when the job has no live placement.
		if len(subs) == 0 {
			s := c.trySubmit(j, nil, false)
			if s == nil {
				// No routable worker right now (fleet down, everyone
				// saturated, or transient submit failures): back off a
				// beat and retry until the deadline says otherwise.
				if !sleepCtx(c.rootCtx, c.opts.HeartbeatEvery/2) {
					continue
				}
				continue
			}
			if j.attemptsNow() > 0 {
				// A successful resubmission after the job lost every
				// placement — the deterministic requeue in action.
				c.met.jobsRequeued.Inc()
				s.span.SetAttr("requeue", "true")
			}
			tried[s.w.url] = s.w
			subs = append(subs, s)
			j.setDispatched(s.w, s.remoteID)
			interval = c.opts.PollEvery
		}

		if !sleepCtx(c.rootCtx, interval) {
			continue // shutting down; loop handles it at the top
		}
		if interval = interval * 5 / 4; interval > c.opts.PollMax {
			interval = c.opts.PollMax
		}

		for i := 0; i < len(subs); {
			s := subs[i]
			if s.w.isLost() {
				drop(i, "worker_lost")
				continue
			}
			ctx, cancel := context.WithTimeout(c.rootCtx, c.opts.HTTPTimeout)
			pollStart := time.Now()
			st, err := s.w.status(ctx, s.remoteID)
			c.met.pollSecs.Observe(time.Since(pollStart).Seconds())
			cancel()
			switch {
			case errors.Is(err, errJobGone):
				// The worker restarted without durable state and forgot
				// the job; resubmit.
				drop(i, "remote_job_gone")
				continue
			case err != nil:
				// Transport trouble. The heartbeat loop is the authority
				// on worker loss, but a per-job error streak must not
				// outwait it.
				if s.fails++; s.fails >= c.opts.MaxMissedHeartbeats {
					drop(i, "poll_errors")
					continue
				}
				i++
				continue
			}
			s.fails = 0
			if st.Status == serve.StateDone || st.Status == serve.StateFailed {
				for _, other := range subs {
					other.w.detach(j.id)
					if other == s {
						other.span.Finish() // the winning placement
					} else {
						other.finishDropped("superseded")
					}
				}
				c.finalize(j, st, tried)
				return
			}
			if st.Status != s.lastState {
				s.lastState = st.Status
				interval = c.opts.PollEvery // state moved; look closer again
			}
			i++
		}

		// Steal: one live placement, still queued past the threshold —
		// duplicate it onto a worker with genuinely spare capacity.
		// First terminal result wins; the loser's work is wasted, not
		// wrong.
		if len(subs) == 1 && !j.stolenNow() && c.opts.StealAfter > 0 &&
			subs[0].lastState != serve.StateRunning && time.Since(subs[0].queuedSince) > c.opts.StealAfter {
			if s2 := c.trySubmit(j, subs[0].w, true); s2 != nil {
				s2.span.SetAttr("steal", "true")
				tried[s2.w.url] = s2.w
				subs = append(subs, s2)
				j.noteStolen()
				c.met.jobsStolen.Inc()
				interval = c.opts.PollEvery
			}
		}
	}
}

// trySubmit routes and submits once. Returns nil when no worker is
// eligible or the submission failed (the caller backs off and
// retries, and the retry is counted as a fresh routing decision).
func (c *Coordinator) trySubmit(j *cjob, exclude *worker, strict bool) *submission {
	w := c.route(j.job.Digest, exclude, strict)
	if w == nil {
		return nil
	}
	// The placement span is the propagation point: the worker adopts its
	// context, so the worker-side job subtree nests under this placement
	// in the assembled fleet-wide tree.
	ps := j.span.Child("placement")
	ps.SetAttr("worker", w.name)
	ps.SetAttr("url", w.url)
	ctx, cancel := context.WithTimeout(c.rootCtx, c.opts.HTTPTimeout)
	defer cancel()
	// The wire request always asks for the profile, so the archive
	// receives the full document; the shared API trims what the client
	// sees back to its own ask.
	req := j.job.Req
	req.Profile = true
	start := time.Now()
	resp, err := w.submit(ctx, &req, obs.FormatTraceHeader(ps.Context()))
	c.met.submitSecs.Observe(time.Since(start).Seconds())
	if err != nil {
		c.met.submitRetries.Inc()
		if errors.Is(err, errWorkerDraining) {
			w.noteDraining()
		}
		ps.SetAttr("drop_reason", "submit_failed")
		ps.SetAttr("error", err.Error())
		ps.Finish()
		return nil
	}
	ps.SetAttr("remote_id", resp.ID)
	w.attach(j)
	return &submission{w: w, remoteID: resp.ID, queuedSince: time.Now(), lastState: serve.StateQueued, span: ps}
}

func (j *cjob) attemptsNow() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

func (j *cjob) stolenNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stolen
}

func (j *cjob) noteStolen() {
	j.mu.Lock()
	j.stolen = true
	j.mu.Unlock()
}

// sleepCtx sleeps d or until ctx is done; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// finalize publishes a worker-reported terminal state and, for
// archiving jobs, appends the run to the fleet-wide archive before
// closing the done channel — a waiter that observes completion may
// rely on the archive already holding the record, the same ordering
// the single-node service keeps. It also assembles the fleet-wide
// trace: every worker that ever held a placement is asked for its side
// of the trace, and the fetched spans are imported into the
// coordinator's store so GET /v1/traces/{id} shows the whole tree —
// requeued and stolen placements included. The job span is finished
// before done closes, so a waiter can fetch a complete trace.
func (c *Coordinator) finalize(j *cjob, st *serve.JobStatus, tried map[string]*worker) {
	// Complete the trace before publishing the terminal state: a client
	// that observes done via GET /v1/jobs/{id} must find the whole tree
	// under /v1/traces/{trace_id}, worker subtrees included.
	c.importWorkerSpans(j, tried)
	j.mu.Lock()
	wname := j.workerName
	attempts := j.attempts
	stolen := j.stolen
	j.mu.Unlock()
	j.span.SetAttr("state", string(st.Status))
	j.span.SetAttr("worker", wname)
	j.span.SetAttrInt("attempts", uint64(attempts))
	if stolen {
		j.span.SetAttr("stolen", "true")
	}
	if st.Error != "" {
		j.span.SetAttr("error", st.Error)
	}
	j.span.Finish()
	j.mu.Lock()
	j.final = st
	j.state = st.Status
	j.errText = st.Error
	j.mu.Unlock()
	c.met.jobsInflight.Add(-1)
	c.met.roundtrip.Observe(time.Since(j.submitted).Seconds())
	if st.Status == serve.StateFailed {
		c.met.jobsFailed.Inc()
	} else {
		c.met.jobsDone.Inc()
	}
	if j.doArchive {
		c.api.Record(j.job.ArchiveRecord(j.outcome(), time.Now().UnixMilli()))
	}
	close(j.done)
}

// importWorkerSpans pulls each tried worker's spans for the job's
// trace into the coordinator store. Lost workers are skipped (their
// API is unreachable; the placement span's drop_reason already tells
// the story), and a fetch failure degrades to a flatter tree, never a
// failed job.
func (c *Coordinator) importWorkerSpans(j *cjob, tried map[string]*worker) {
	// Jobs of one sweep share a trace, so a later finalize re-fetches
	// spans an earlier one already imported; skip known span ids to
	// keep the store duplicate-free.
	seen := map[string]bool{}
	for _, sp := range c.spanStore.Trace(j.traceID) {
		seen[sp.SpanID] = true
	}
	for _, w := range tried {
		if w.isLost() {
			continue
		}
		ctx, cancel := context.WithTimeout(c.rootCtx, c.opts.HTTPTimeout)
		spans, err := w.fetchSpans(ctx, j.traceID)
		cancel()
		if err != nil {
			c.log.Warn(fmt.Sprintf("fabric: trace fetch from %s failed: %v", w.name, err),
				"worker", w.name, "trace_id", j.traceID, "err", err.Error())
			continue
		}
		for i := range spans {
			if seen[spans[i].SpanID] {
				continue
			}
			seen[spans[i].SpanID] = true
			c.spanStore.Add(spans[i])
		}
	}
}

// fail publishes a fabric-level terminal failure (deadline, shutdown).
// These never reach the archive: unlike worker-reported outcomes they
// are not deterministic functions of the request.
func (c *Coordinator) fail(j *cjob, msg string) {
	j.mu.Lock()
	j.state = serve.StateFailed
	j.errText = msg
	j.mu.Unlock()
	c.met.jobsInflight.Add(-1)
	c.met.jobsFailed.Inc()
	j.span.SetAttr("state", string(serve.StateFailed))
	j.span.SetAttr("error", msg)
	j.span.Finish()
	close(j.done)
}

// outcome is a terminal job's result as the shared API reports and
// archives it: the worker's verdict when one arrived, an abandoned
// failure when the fabric gave up (deadline, shutdown).
func (j *cjob) outcome() serve.Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	o := serve.Outcome{Err: j.errText, ExitCode: runner.ExitSim, Abandoned: j.final == nil}
	if j.final != nil {
		if j.state == serve.StateDone {
			o.Result, o.ExitCode = j.final.Result, 0
		}
		if j.final.ExitCode != nil {
			o.ExitCode = *j.final.ExitCode
		}
	}
	if j.state == serve.StateFailed && o.Err == "" {
		o.Err = "job failed"
	}
	return o
}

// The Coordinator is ximdc's serve.Executor: every job, sweep variant
// and regression run becomes one fabric job.

// Load validates a program exactly as a worker will decode it. The
// coordinator keeps no decoded programs — the workers' caches are what
// digest affinity keeps warm — so hit is always false.
func (c *Coordinator) Load(arch runner.Arch, source []byte) (*runner.Program, string, bool, error) {
	prog, err := runner.Load(arch, source)
	return prog, archive.ProgramDigest(arch, source), false, err
}

// Submit starts one fabric job under a "request" span that covers only
// the HTTP exchange; the job span lives on under it until the job
// turns terminal.
func (c *Coordinator) Submit(job *serve.Job, sc obs.SpanContext) (string, obs.SpanContext, error) {
	reqSpan := c.tr.Adopt(sc, "request")
	reqSpan.SetAttr("digest", job.Digest)
	defer reqSpan.Finish()
	j, err := c.startJob(job, true, reqSpan.Child("job"))
	if err != nil {
		reqSpan.SetAttr("error", err.Error())
		return "", obs.SpanContext{}, err
	}
	return j.id, reqSpan.Context(), nil
}

// SubmitSweep starts one fabric job per variant. A shutdown racing the
// fan-out fails the request; the variants already started finalize as
// failed on their own.
func (c *Coordinator) SubmitSweep(jobs []*serve.Job, sweepID string, span *obs.Span) ([]string, error) {
	ids := make([]string, 0, len(jobs))
	for _, job := range jobs {
		js := span.Child("job")
		js.SetAttr("sweep_id", sweepID)
		js.SetAttr("variant", job.Name)
		j, err := c.startJob(job, true, js)
		if err != nil {
			return nil, err
		}
		ids = append(ids, j.id)
	}
	return ids, nil
}

// RunBatch fans the jobs out over the fleet and waits for every one.
// Each outcome is the variant's deterministic result document — the
// same bytes no matter which worker ran it, how often it was requeued,
// or whether a steal raced it.
func (c *Coordinator) RunBatch(jobs []*serve.Job, span *obs.Span) ([]serve.Outcome, []string) {
	outs := make([]serve.Outcome, len(jobs))
	ids := make([]string, len(jobs))
	started := make([]*cjob, len(jobs))
	for i, job := range jobs {
		js := span.Child("job")
		js.SetAttr("variant", job.Name)
		j, err := c.startJob(job, false, js)
		if err != nil {
			outs[i] = serve.Outcome{Err: err.Error(), ExitCode: runner.ExitSim, Abandoned: true}
			continue
		}
		started[i], ids[i] = j, j.id
	}
	for i, j := range started {
		if j != nil {
			<-j.done
			outs[i] = j.outcome()
		}
	}
	return outs, ids
}

// Status reports a fabric job with its fleet placement beside the
// usual terminal fields.
func (c *Coordinator) Status(id string) (*serve.JobStatus, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", serve.ErrUnknownJob, id)
	}
	j.mu.Lock()
	st := &serve.JobStatus{
		ID:            j.id,
		Status:        j.state,
		ProgramSHA256: j.job.Digest,
		Worker:        j.workerName,
		RemoteID:      j.remoteID,
		Attempts:      j.attempts,
		Stolen:        j.stolen,
		TraceID:       j.traceID,
		Error:         j.errText,
	}
	j.mu.Unlock()
	if st.Status == serve.StateDone || st.Status == serve.StateFailed {
		o := j.outcome()
		st.ExitCode = &o.ExitCode
		st.Result = j.job.ClientResult(o.Result)
	}
	return st, nil
}
