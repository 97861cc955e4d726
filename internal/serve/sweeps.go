package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ximd/internal/inject"
	"ximd/internal/obs"
	"ximd/internal/runner"
)

// SweepRequest is the body of POST /v1/sweeps: one base job plus the
// axes to vary. The expanded task list is the cross product of Injects
// and Seeds (inject outer, seed inner); an empty axis falls back to the
// base value, so {seeds:[1,2,3]} runs three seeds of the base spec and
// {} degenerates to a single run. Results always come back in
// submission order, one entry per task, regardless of which worker
// finished first — the sweep engine's ordering guarantee.
type SweepRequest struct {
	Base JobRequest `json:"base"`
	// Seeds are fault-injection seed variations.
	Seeds []int64 `json:"seeds,omitempty"`
	// Injects are fault-injection spec variations.
	Injects []string `json:"injects,omitempty"`
	// Detach submits every variant as a regular job through the bounded
	// queue and answers immediately with a sweep id plus the per-variant
	// job ids; poll GET /v1/sweeps/{id} for terminal states and the
	// individual job endpoints for result documents. The whole batch is
	// admitted atomically: if the queue cannot hold every variant the
	// request is rejected 429 and nothing runs.
	Detach bool `json:"detach,omitempty"`
}

// variant is one expanded (seed, inject) point of a sweep or regression
// cross-product.
type variant struct {
	// name is the stable task label, "inject=%q/seed=%d".
	name string
	seed int64
	// inject is the spec exactly as submitted; canon its canonical form
	// (the archive key's inject axis).
	inject string
	canon  string
}

// expandVariants crosses the inject axis (outer) with the seed axis
// (inner); an empty axis falls back to the base value. Every inject
// variation is canonicalized up front, so the whole batch is rejected
// on the first bad spec — a sweep never partially validates.
func expandVariants(baseSeed int64, baseInject string, seeds []int64, injects []string, maxTasks int) ([]variant, error) {
	if len(seeds) == 0 {
		seeds = []int64{baseSeed}
	}
	if len(injects) == 0 {
		injects = []string{baseInject}
	}
	if n := len(seeds) * len(injects); n > maxTasks {
		return nil, fmt.Errorf("sweep expands to %d tasks, limit %d", n, maxTasks)
	}
	variants := make([]variant, 0, len(seeds)*len(injects))
	for i, inj := range injects {
		canon, err := inject.Canonicalize(inj)
		if err != nil {
			return nil, fmt.Errorf("injects[%d]: %w", i, err)
		}
		for _, seed := range seeds {
			variants = append(variants, variant{
				name:   fmt.Sprintf("inject=%q/seed=%d", inj, seed),
				seed:   seed,
				inject: inj,
				canon:  canon,
			})
		}
	}
	return variants, nil
}

// SweepTaskResult is one entry of a sweep response, in submission order.
type SweepTaskResult struct {
	Name   string            `json:"name"`
	Seed   int64             `json:"seed"`
	Inject string            `json:"inject,omitempty"`
	Error  string            `json:"error,omitempty"`
	Result *runner.ResultDoc `json:"result,omitempty"`
}

// SweepResponse is the body of a completed sweep.
type SweepResponse struct {
	ProgramSHA256 string            `json:"program_sha256"`
	CacheHit      bool              `json:"cache_hit"`
	Results       []SweepTaskResult `json:"results"`
}

// SweepSubmitResponse is the 202 body of a detached POST /v1/sweeps:
// the sweep id to poll plus the per-variant job ids in submission
// order, so a client can follow each variant through the regular job
// endpoints.
type SweepSubmitResponse struct {
	ID            string   `json:"id"`
	Status        State    `json:"status"`
	ProgramSHA256 string   `json:"program_sha256"`
	CacheHit      bool     `json:"cache_hit"`
	JobIDs        []string `json:"job_ids"`
}

// SweepVariantStatus is one entry of GET /v1/sweeps/{id}, in
// submission order.
type SweepVariantStatus struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Inject   string `json:"inject,omitempty"`
	JobID    string `json:"job_id"`
	Status   State  `json:"status"`
	ExitCode *int   `json:"exit_code,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SweepStatus is the body of GET /v1/sweeps/{id}: the aggregate state
// plus every variant's job id and terminal state.
type SweepStatus struct {
	ID            string               `json:"id"`
	Status        State                `json:"status"`
	ProgramSHA256 string               `json:"program_sha256"`
	CacheHit      bool                 `json:"cache_hit"`
	Queued        int                  `json:"queued"`
	Running       int                  `json:"running"`
	Done          int                  `json:"done"`
	Failed        int                  `json:"failed"`
	Variants      []SweepVariantStatus `json:"variants"`
}

// sweepRec groups the jobs of one pollable sweep, in submission order.
// It is a view over the executor's job table: aggregate status is
// derived from the member jobs at read time. Sweep ids are volatile —
// member jobs survive a ximdd crash under their own ids, the grouping
// does not.
type sweepRec struct {
	id       string
	digest   string
	cacheHit bool
	variants []variant
	jobIDs   []string
}

func (a *API) newSweepID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextSweep++
	return "s-" + strconv.FormatUint(a.nextSweep, 10)
}

func (a *API) addSweep(rec *sweepRec) {
	a.mu.Lock()
	a.sweeps[rec.id] = rec
	a.mu.Unlock()
}

// handleSweep expands a batch of (seed, inject) variations of one
// program and hands it to the executor: synchronously, answering with
// the results in submission order, or detached, answering 202 with a
// sweep id and per-variant job ids. Concurrent sweep requests beyond
// the configured bound get 429 + Retry-After, the same backpressure
// contract as the job queue.
func (a *API) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !a.acquireSweep(w) {
		return
	}
	defer func() { <-a.sweepSem }()
	var req SweepRequest
	if !a.decode(w, r, &req) {
		return
	}
	if req.Base.Trace {
		writeError(w, http.StatusBadRequest, errors.New("sweeps do not support trace=true"))
		return
	}
	base, status, err := a.buildJob(&req.Base)
	if err != nil {
		writeError(w, status, err)
		return
	}
	variants, err := expandVariants(base.Req.Seed, base.Req.Inject, req.Seeds, req.Injects, a.cfg.MaxSweepTasks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs := base.variants(variants)
	rec := &sweepRec{digest: base.Digest, cacheHit: base.CacheHit, variants: variants}

	// The sweep root span: adopted from the caller's trace context when
	// the header is present, a fresh root otherwise.
	sc, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	span := a.cfg.Tracer.Adopt(sc, "sweep")
	span.SetAttr("digest", base.Digest)
	span.SetAttr("arch", string(base.Arch))
	if req.Detach {
		// The sweep span covers expansion and atomic admission; each
		// member job roots its own lifecycle subtree under it and
		// finishes on its own schedule.
		defer span.Finish()
		rec.id = a.newSweepID()
		span.SetAttr("sweep_id", rec.id)
		if rec.jobIDs, err = a.ex.SubmitSweep(jobs, rec.id, span); err != nil {
			span.SetAttr("error", err.Error())
			a.refuse(w, err)
			return
		}
		a.addSweep(rec)
		a.met.sweeps.Inc()
		a.met.sweepTasks.Add(uint64(len(jobs)))
		w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(span.Context()))
		WriteJSON(w, http.StatusAccepted, SweepSubmitResponse{
			ID:            rec.id,
			Status:        StateQueued,
			ProgramSHA256: base.Digest,
			CacheHit:      base.CacheHit,
			JobIDs:        rec.jobIDs,
		})
		return
	}

	outs, ids := a.ex.RunBatch(jobs, span)
	if ids != nil {
		// The variants ran as pollable jobs: the sweep stays queryable
		// under the id its trace root names.
		rec.id, rec.jobIDs = a.newSweepID(), ids
		a.addSweep(rec)
		span.SetAttr("sweep_id", rec.id)
	}
	span.Finish()
	w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(span.Context()))
	a.met.sweeps.Inc()
	a.met.sweepTasks.Add(uint64(len(jobs)))

	now := time.Now().UnixMilli()
	resp := SweepResponse{ProgramSHA256: base.Digest, CacheHit: base.CacheHit}
	for i, o := range outs {
		if !o.Abandoned {
			a.Record(jobs[i].ArchiveRecord(o, now))
		}
		resp.Results = append(resp.Results, SweepTaskResult{
			Name:   variants[i].name,
			Seed:   variants[i].seed,
			Inject: variants[i].inject,
			Error:  o.Err,
			Result: base.ClientResult(o.Result),
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleSweepStatus serves GET /v1/sweeps/{id}.
func (a *API) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a.mu.Lock()
	rec, ok := a.sweeps[id]
	a.mu.Unlock()
	if !ok {
		a.refuse(w, fmt.Errorf("%w: %s", ErrUnknownSweep, id))
		return
	}
	st := SweepStatus{ID: rec.id, ProgramSHA256: rec.digest, CacheHit: rec.cacheHit}
	for i, jobID := range rec.jobIDs {
		js, err := a.ex.Status(jobID)
		if err != nil {
			a.refuse(w, err)
			return
		}
		switch js.Status {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
		v := rec.variants[i]
		st.Variants = append(st.Variants, SweepVariantStatus{
			Name:     v.name,
			Seed:     v.seed,
			Inject:   v.inject,
			JobID:    jobID,
			Status:   js.Status,
			ExitCode: js.ExitCode,
			Error:    js.Error,
		})
	}
	n := len(rec.jobIDs)
	switch {
	case st.Done == n:
		st.Status = StateDone
	case st.Done+st.Failed == n:
		st.Status = StateFailed
	case st.Queued == n:
		st.Status = StateQueued
	default:
		st.Status = StateRunning
	}
	WriteJSON(w, http.StatusOK, st)
}
