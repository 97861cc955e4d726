package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ximd/internal/archive"
	"ximd/internal/inject"
	"ximd/internal/obs"
)

// This file is the regression gate. GET /v1/runs queries the durable
// run archive; POST /v1/regress re-runs a batch of (seed, inject)
// variations and diffs each fresh run against its archived baseline
// under the archive's tolerance policy. Both answer 404 when the daemon
// was started without -archive. On ximdc the archive holds fleet
// history, so a sweep run across four workers can gate a later one
// across two.

// RunsResponse is the body of GET /v1/runs.
type RunsResponse struct {
	Count int              `json:"count"`
	Runs  []archive.Record `json:"runs"`
}

// handleRuns serves cross-run history from the archive. Filters:
// digest (program_sha256), arch, seed, inject (matched in canonical
// form; an explicitly empty inject= selects idealized runs), limit
// (newest N).
func (a *API) handleRuns(w http.ResponseWriter, r *http.Request) {
	if a.cfg.Archive == nil {
		writeError(w, http.StatusNotFound, a.errNoArchive())
		return
	}
	params := r.URL.Query()
	q := archive.Query{
		ProgramSHA256: params.Get("digest"),
		Arch:          params.Get("arch"),
	}
	if v := params.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", v))
			return
		}
		q.Seed = &seed
	}
	if vs, ok := params["inject"]; ok {
		canon, err := inject.Canonicalize(vs[0])
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("inject: %w", err))
			return
		}
		q.Inject = &canon
	}
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		q.Limit = n
	}
	recs := a.cfg.Archive.Select(q)
	a.met.archiveQueries.Inc()
	if recs == nil {
		recs = []archive.Record{}
	}
	WriteJSON(w, http.StatusOK, RunsResponse{Count: len(recs), Runs: recs})
}

func (a *API) errNoArchive() error {
	return fmt.Errorf("serve: run archive disabled (start %s with -archive)", a.cfg.Service)
}

// RegressRequest is the body of POST /v1/regress: the same shape as a
// sweep — one base job plus seed/inject axes — evaluated as a
// regression gate instead of returned as documents.
type RegressRequest struct {
	Base JobRequest `json:"base"`
	// Seeds and Injects expand exactly like a sweep's axes.
	Seeds   []int64  `json:"seeds,omitempty"`
	Injects []string `json:"injects,omitempty"`
	// BaselineSeed and BaselineInject, when set, override the matching
	// axis of the baseline lookup key, diffing every fresh run against a
	// different archived configuration (e.g. "does seed 7 still behave
	// like the archived seed 1"). Left unset, each run is compared
	// against the latest archived record for its own key.
	BaselineSeed   *int64  `json:"baseline_seed,omitempty"`
	BaselineInject *string `json:"baseline_inject,omitempty"`
	// Tolerance is the absolute tolerance for ratio metrics; 0 selects
	// archive.DefaultRatioTolerance. Integral fields are always exact.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Record appends the fresh runs to the archive after the comparison
	// (so a passing gate can double as a baseline refresh). Comparison
	// always happens first — a run never passes by matching itself.
	Record bool `json:"record,omitempty"`
}

// RegressResponse is the body of a completed gate evaluation.
type RegressResponse struct {
	ProgramSHA256 string          `json:"program_sha256"`
	Report        *archive.Report `json:"report"`
}

// handleRegress re-runs the requested batch on the executor and diffs
// each run against its archived baseline. The gate's verdict is
// report.pass: false on any drift beyond tolerance or any missing
// baseline. The HTTP status is 200 either way — a failing gate is a
// successful evaluation.
func (a *API) handleRegress(w http.ResponseWriter, r *http.Request) {
	if a.cfg.Archive == nil {
		writeError(w, http.StatusNotFound, a.errNoArchive())
		return
	}
	// Regressions fan out like sweeps and share their concurrency bound
	// and backpressure contract.
	if !a.acquireSweep(w) {
		return
	}
	defer func() { <-a.sweepSem }()
	var req RegressRequest
	if !a.decode(w, r, &req) {
		return
	}
	if req.Base.Trace {
		writeError(w, http.StatusBadRequest, errors.New("regressions do not support trace=true"))
		return
	}
	if req.Tolerance < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("tolerance must be >= 0, got %g", req.Tolerance))
		return
	}
	var baselineInject *string
	if req.BaselineInject != nil {
		canon, err := inject.Canonicalize(*req.BaselineInject)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("baseline_inject: %w", err))
			return
		}
		baselineInject = &canon
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

	// Regression batches trace like sweeps: adopt the caller's context
	// or root fresh, one child per re-run.
	sc, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	span := a.cfg.Tracer.Adopt(sc, "regress")
	span.SetAttr("digest", base.Digest)
	jobs := base.variants(variants)
	outs, _ := a.ex.RunBatch(jobs, span)
	span.Finish()
	w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(span.Context()))

	now := time.Now().UnixMilli()
	tol := archive.Tolerance{Ratio: req.Tolerance}
	report := archive.NewReport(tol)
	for i, j := range jobs {
		rec := j.ArchiveRecord(outs[i], now)
		lookup := rec.Key
		if req.BaselineSeed != nil {
			lookup.Seed = *req.BaselineSeed
		}
		if baselineInject != nil {
			lookup.Inject = *baselineInject
		}
		if baseline, ok := a.cfg.Archive.Latest(lookup); ok {
			report.Add(archive.Compare(baseline, rec, tol))
		} else {
			report.Add(archive.Comparison{Key: rec.Key, Status: archive.StatusMissingBaseline})
		}
	}
	a.met.regress.Inc()
	if !report.Pass {
		a.met.regressFailed.Inc()
	}
	if req.Record {
		// Comparison happened first: a run never passes by matching
		// itself.
		for i, j := range jobs {
			if !outs[i].Abandoned {
				a.Record(j.ArchiveRecord(outs[i], now))
			}
		}
	}
	WriteJSON(w, http.StatusOK, RegressResponse{ProgramSHA256: base.Digest, Report: report})
}
