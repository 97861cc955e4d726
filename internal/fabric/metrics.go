package fabric

import (
	"ximd/internal/obs"
)

// fabricMetrics is the coordinator's instrumentation, one obs.Registry
// per Coordinator (tests and multi-coordinator processes never share
// counters); the shared API registers its sweep, regress and archive
// family into the same registry. Naming follows the worker convention
// with the ximdc_ prefix: counters end in _total, duration histograms
// in _seconds.
type fabricMetrics struct {
	reg *obs.Registry

	// Routing. A hit is a job placed on its rendezvous first choice —
	// the worker whose decoded/fusion cache holds the program.
	jobsRouted     *obs.Counter
	affinityHits   *obs.Counter
	affinitySpills *obs.Counter

	// Job lifecycle.
	jobsTotal     *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsRequeued  *obs.Counter
	jobsStolen    *obs.Counter
	submitRetries *obs.Counter
	jobsInflight  *obs.Gauge

	// Fleet health.
	workersTotal     *obs.Gauge
	heartbeats       *obs.Counter
	heartbeatMisses  *obs.Counter
	workersLost      *obs.Counter
	workersRecovered *obs.Counter

	submitSecs *obs.Histogram
	roundtrip  *obs.Histogram
	pollSecs   *obs.Histogram
}

// fabricBuckets spans worker round-trips: submits are network-bound
// milliseconds, whole jobs run out to the fabric job timeout.
var fabricBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

func newFabricMetrics() *fabricMetrics {
	reg := obs.NewRegistry()
	m := &fabricMetrics{
		reg: reg,

		jobsRouted:     reg.Counter("ximdc_jobs_routed_total", "Job placements decided by the affinity router (requeues and steals count again)."),
		affinityHits:   reg.Counter("ximdc_affinity_hits_total", "Placements on the program's rendezvous first-choice worker."),
		affinitySpills: reg.Counter("ximdc_affinity_spills_total", "Placements that spilled past the first choice (load bound or worker not ready)."),

		jobsTotal:     reg.Counter("ximdc_jobs_total", "Fabric jobs accepted (direct submissions, sweep variants, regress runs)."),
		jobsDone:      reg.Counter("ximdc_jobs_done_total", "Fabric jobs that reached the done state."),
		jobsFailed:    reg.Counter("ximdc_jobs_failed_total", "Fabric jobs that reached the failed state (worker-reported or fabric-level)."),
		jobsRequeued:  reg.Counter("ximdc_jobs_requeued_total", "Jobs resubmitted after losing every live placement (worker lost, job gone, poll-error streak)."),
		jobsStolen:    reg.Counter("ximdc_jobs_stolen_total", "Jobs duplicated onto an idle worker after sitting queued past the steal threshold."),
		submitRetries: reg.Counter("ximdc_submit_retries_total", "Worker submissions that failed (429, 503, transport) and were retried elsewhere."),
		jobsInflight:  reg.Gauge("ximdc_jobs_inflight", "Fabric jobs currently non-terminal."),

		workersTotal:     reg.Gauge("ximdc_workers", "Configured fleet size."),
		heartbeats:       reg.Counter("ximdc_heartbeats_total", "Lease renewals attempted."),
		heartbeatMisses:  reg.Counter("ximdc_heartbeat_misses_total", "Lease renewals that failed."),
		workersLost:      reg.Counter("ximdc_workers_lost_total", "Workers marked lost after consecutive missed heartbeats."),
		workersRecovered: reg.Counter("ximdc_workers_recovered_total", "Lost workers that leased again."),

		submitSecs: reg.Histogram("ximdc_submit_seconds", "Latency of one job submission to a worker.", fabricBuckets),
		roundtrip:  reg.Histogram("ximdc_job_roundtrip_seconds", "Fabric job time from acceptance to terminal state, across requeues.", fabricBuckets),
		pollSecs:   reg.Histogram("ximdc_poll_seconds", "Round trip of one job status poll against a worker.", fabricBuckets),
	}
	reg.GaugeFunc("ximdc_affinity_hit_rate", "Fraction of placements on the rendezvous first choice (1.0 until the first placement).",
		func() float64 {
			hits := float64(m.affinityHits.Value())
			total := hits + float64(m.affinitySpills.Value())
			if total == 0 {
				return 1
			}
			return hits / total
		})
	return m
}

// registerWorkerGauges exposes one worker's coordinator-tracked load.
// The obs registry has no label support, so per-worker series carry the
// worker name in the metric name: ximdc_worker_inflight_w0, ...
func (m *fabricMetrics) registerWorkerGauges(w *worker) {
	m.reg.GaugeFunc("ximdc_worker_inflight_"+w.name,
		"Assigned, non-terminal fabric jobs on worker "+w.name+".",
		func() float64 { return float64(w.inflightLen()) })
}
