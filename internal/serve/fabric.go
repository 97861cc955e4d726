package serve

// The worker-side half of the distributed sweep fabric. A ximdd worker
// is still a complete standalone service; these endpoints are what a
// fabric coordinator (internal/fabric, cmd/ximdc) layers on top of the
// ordinary job API to run a fleet:
//
//	GET  /livez            process liveness: 200 for as long as the
//	                       process can answer at all, draining or not
//	GET  /readyz           routing readiness: 503 "draining" during
//	                       graceful shutdown, so a coordinator stops
//	                       sending work instead of eating per-job 503s
//	POST /v1/fabric/lease  coordinator registration: acquires or renews
//	                       an exclusive, TTL-bounded lease on this
//	                       worker and doubles as the heartbeat — the
//	                       response reports identity and load (executor
//	                       count, queue depth/capacity, inflight jobs,
//	                       drain state) that the coordinator's router
//	                       feeds into digest-affinity placement
//
// /healthz keeps its historical behaviour byte-for-byte (200 "ok",
// 503 "draining" while shutting down) for single-node users; the
// liveness/readiness split is strictly additive.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Lease TTL bounds: a coordinator that asks for nothing gets
// DefaultLeaseTTL; requests are clamped to [MinLeaseTTL, MaxLeaseTTL].
const (
	DefaultLeaseTTL = 3 * time.Second
	MinLeaseTTL     = 100 * time.Millisecond
	MaxLeaseTTL     = time.Minute
)

// LeaseRequest is the body of POST /v1/fabric/lease.
type LeaseRequest struct {
	// Coordinator identifies the lease holder; renewals must present
	// the same identity.
	Coordinator string `json:"coordinator"`
	// TTLMS is the requested lease duration in milliseconds
	// (0 = DefaultLeaseTTL).
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// LeaseResponse is the 200 body of a granted or renewed lease: the
// worker's identity plus the load signals the coordinator's router
// uses for spill decisions.
type LeaseResponse struct {
	WorkerID string `json:"worker_id"`
	// TTLMS is the granted lease duration (the requested value after
	// clamping).
	TTLMS int64 `json:"ttl_ms"`
	// Executors is the worker-pool size; QueueCapacity the bounded
	// submission queue depth — together the worker's nominal capacity.
	Executors     int `json:"executors"`
	QueueCapacity int `json:"queue_capacity"`
	// Queued and Running are the current load.
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	// Draining reports graceful shutdown in progress: the lease still
	// renews (the coordinator keeps reconciling inflight jobs) but no
	// new work should be routed here.
	Draining bool `json:"draining"`
}

// leaseState is the worker's registration record: at most one
// coordinator holds the lease at a time, and a competing coordinator
// is refused (409) until the holder's TTL lapses.
type leaseState struct {
	mu      sync.Mutex
	holder  string
	expires time.Time
}

// newWorkerID mints the worker's identity, stable for the process
// lifetime and carried in every lease response.
func newWorkerID() string {
	var b [6]byte
	_, _ = rand.Read(b[:])
	return "w-" + hex.EncodeToString(b[:])
}

func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.ShuttingDown() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Coordinator == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("lease request needs a coordinator identity"))
		return
	}
	ttl := time.Duration(req.TTLMS) * time.Millisecond
	switch {
	case ttl <= 0:
		ttl = DefaultLeaseTTL
	case ttl < MinLeaseTTL:
		ttl = MinLeaseTTL
	case ttl > MaxLeaseTTL:
		ttl = MaxLeaseTTL
	}

	now := time.Now()
	s.lease.mu.Lock()
	switch {
	case s.lease.holder == "" || s.lease.holder == req.Coordinator || now.After(s.lease.expires):
		s.lease.holder = req.Coordinator
		s.lease.expires = now.Add(ttl)
	default:
		holder, remaining := s.lease.holder, time.Until(s.lease.expires)
		s.lease.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: worker leased to %q for another %v", holder, remaining.Round(time.Millisecond)))
		return
	}
	s.lease.mu.Unlock()

	WriteJSON(w, http.StatusOK, LeaseResponse{
		WorkerID:      s.workerID,
		TTLMS:         int64(ttl / time.Millisecond),
		Executors:     s.opts.Workers,
		QueueCapacity: s.opts.QueueDepth,
		Queued:        s.mgr.met.queued.Value(),
		Running:       s.mgr.met.running.Value(),
		Draining:      s.mgr.ShuttingDown(),
	})
}
