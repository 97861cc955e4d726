package serve

import (
	"fmt"
	"strings"
	"time"

	"ximd/internal/obs"
)

// serveMetrics is the service's instrumentation, carried by one
// obs.Registry per Server so tests and multi-server processes never
// share counters (the same isolation the old per-manager expvar.Map
// gave). The registry is served verbatim at GET /metrics; /varz is a
// legacy view over the same counters (see varzJSON).
//
// Naming: every series carries the ximdd_ prefix, counters end in
// _total, and duration histograms end in _seconds, per the Prometheus
// conventions.
type serveMetrics struct {
	reg *obs.Registry

	jobsTotal      *obs.Counter
	jobsDone       *obs.Counter
	jobsFailed     *obs.Counter
	rejectedFull   *obs.Counter
	rejectedClosed *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cyclesSimmed   *obs.Counter

	jobsRequeued *obs.Counter
	jobsResumed  *obs.Counter
	jobsColdRun  *obs.Counter
	ckptWrites   *obs.Counter
	ckptBytes    *obs.Counter
	ckptErrs     *obs.Counter

	queued        *obs.Gauge
	running       *obs.Gauge
	queueCapacity *obs.Gauge
	workers       *obs.Gauge

	ckptSaveSecs *obs.Histogram

	queueWait  *obs.Histogram
	decodeHit  *obs.Histogram
	decodeMiss *obs.Histogram
	execute    *obs.Histogram
	total      *obs.Histogram
	sweepTask  *obs.Histogram
}

// latencyBuckets covers the service's span range: decode and queue
// waits live in the sub-millisecond decades, executions run up to the
// multi-second job timeout.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

func newServeMetrics() *serveMetrics {
	reg := obs.NewRegistry()
	return &serveMetrics{
		reg: reg,

		jobsTotal:      reg.Counter("ximdd_jobs_total", "Jobs accepted into the submission queue."),
		jobsDone:       reg.Counter("ximdd_jobs_done_total", "Jobs that reached the done state."),
		jobsFailed:     reg.Counter("ximdd_jobs_failed_total", "Jobs that reached the failed state."),
		rejectedFull:   reg.Counter("ximdd_rejected_queue_full_total", "Submissions rejected with 429 because the queue was full."),
		rejectedClosed: reg.Counter("ximdd_rejected_shutting_down_total", "Submissions rejected with 503 during graceful shutdown."),
		cacheHits:      reg.Counter("ximdd_cache_hits_total", "Decoded-program cache hits."),
		cacheMisses:    reg.Counter("ximdd_cache_misses_total", "Decoded-program cache misses."),
		cyclesSimmed:   reg.Counter("ximdd_cycles_simulated_total", "Machine cycles simulated across jobs and sweep tasks."),

		jobsRequeued: reg.Counter("ximdd_jobs_requeued_total", "Journaled jobs re-enqueued from scratch after a restart (never started, or no usable checkpoint and never run)."),
		jobsResumed:  reg.Counter("ximdd_jobs_resumed_total", "Journaled jobs resumed from a durable checkpoint after a restart."),
		jobsColdRun:  reg.Counter("ximdd_jobs_cold_rerun_total", "Journaled jobs rerun from cycle 0 after a restart because their checkpoint was missing, torn, or stale."),
		ckptWrites:   reg.Counter("ximdd_checkpoint_writes_total", "Durable job checkpoints written (frame append + fsync)."),
		ckptBytes:    reg.Counter("ximdd_checkpoint_bytes_total", "Bytes of framed checkpoint data written."),
		ckptErrs:     reg.Counter("ximdd_checkpoint_errors_total", "Checkpoint writes or deletes that failed (job unaffected, resumability degraded)."),

		queued:        reg.Gauge("ximdd_jobs_queued", "Jobs currently waiting in the submission queue."),
		running:       reg.Gauge("ximdd_jobs_running", "Jobs currently executing."),
		queueCapacity: reg.Gauge("ximdd_queue_capacity", "Configured submission queue depth."),
		workers:       reg.Gauge("ximdd_workers", "Configured worker pool size."),

		ckptSaveSecs: reg.Histogram("ximdd_checkpoint_save_seconds", "Durable checkpoint save latency (snapshot encode + frame write + fsync).", latencyBuckets),

		queueWait:  reg.Histogram("ximdd_job_queue_wait_seconds", "Time from job acceptance to execution start.", latencyBuckets),
		decodeHit:  reg.Histogram("ximdd_job_decode_hit_seconds", "Program resolution time on a decoded-program cache hit.", latencyBuckets),
		decodeMiss: reg.Histogram("ximdd_job_decode_miss_seconds", "Program resolution time on a cache miss (assemble, validate, pre-decode).", latencyBuckets),
		execute:    reg.Histogram("ximdd_job_execute_seconds", "Job execution time in the sweep engine.", latencyBuckets),
		total:      reg.Histogram("ximdd_job_total_seconds", "Time from job acceptance to terminal state.", latencyBuckets),
		sweepTask:  reg.Histogram("ximdd_sweep_task_seconds", "Per-task execution time of synchronous sweeps.", latencyBuckets),
	}
}

// observeDecode records one program resolution in the hit- or
// miss-labelled series.
func (sm *serveMetrics) observeDecode(d time.Duration, hit bool) {
	if hit {
		sm.decodeHit.Observe(d.Seconds())
	} else {
		sm.decodeMiss.Observe(d.Seconds())
	}
}

// varzJSON renders the legacy /varz document from the registry's
// counters. The output is byte-compatible with what the previous
// expvar.Map-backed handler produced — expvar.Map.String() emits
// `{"k": v, "k2": v2}` with keys in sorted order — so existing
// scrapers keep working unchanged. The key set and its sorted order
// are fixed here; TestVarzByteCompatibleWithExpvar holds the rendering
// to a real expvar.Map.
func (m *manager) varzJSON() string {
	depth := int64(len(m.queue))
	m.mu.Lock()
	entries := int64(m.cache.len())
	m.mu.Unlock()
	sm := m.met
	pairs := []struct {
		key string
		val int64
	}{
		{"cache_entries", entries},
		{"cache_hits", int64(sm.cacheHits.Value())},
		{"cache_misses", int64(sm.cacheMisses.Value())},
		{"cycles_simulated", int64(sm.cyclesSimmed.Value())},
		{"jobs_done", int64(sm.jobsDone.Value())},
		{"jobs_failed", int64(sm.jobsFailed.Value())},
		{"jobs_queued", sm.queued.Value()},
		{"jobs_running", sm.running.Value()},
		{"queue_capacity", sm.queueCapacity.Value()},
		{"queue_depth", depth},
		{"rejected_queue_full", int64(sm.rejectedFull.Value())},
		{"rejected_shutting_down", int64(sm.rejectedClosed.Value())},
		{"sweep_tasks", int64(m.api.met.sweepTasks.Value())},
		{"sweeps_run", int64(m.api.met.sweeps.Value())},
		{"workers", sm.workers.Value()},
	}
	var b strings.Builder
	b.WriteString("{")
	for i, p := range pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %d", p.key, p.val)
	}
	b.WriteString("}")
	return b.String()
}
