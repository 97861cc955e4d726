package obs

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Distributed tracing: Span/Tracer/SpanStore are the service plane's
// counterpart of the per-cycle trace recorder. A trace is a tree of
// timed spans that may cross processes — the coordinator's request at
// the root, worker-side job phases underneath — stitched together by
// (trace id, parent span id) pairs carried in the TraceHeader.
//
// Clock discipline: span durations and sibling ordering come from the
// monotonic clock (time.Time subtraction). Wall-clock timestamps appear
// only as the anchor of each process-local subtree root (a Root or
// Adopt span); child spans carry a monotonic offset from that anchor.
// Clocks across hosts are never assumed synchronized, and no wall-clock
// value ever feeds a duration.

// TraceHeader is the HTTP header that propagates trace context between
// processes: "<trace id>-<parent span id>", both lowercase hex.
const TraceHeader = "X-Ximd-Trace"

// SpanContext is the propagated half of a span: enough to parent a
// remote child under it.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both ids are present.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// FormatTraceHeader renders a SpanContext as the TraceHeader value.
func FormatTraceHeader(sc SpanContext) string { return sc.TraceID + "-" + sc.SpanID }

// ParseTraceHeader parses a TraceHeader value. A malformed or empty
// header returns ok=false — the caller starts a fresh root trace; bad
// propagation must never fail a request.
func ParseTraceHeader(s string) (SpanContext, bool) {
	if len(s) != idHexLen*2+1 || s[idHexLen] != '-' {
		return SpanContext{}, false
	}
	tid, sid := s[:idHexLen], s[idHexLen+1:]
	if !isHex(tid) || !isHex(sid) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: tid, SpanID: sid}, true
}

// idHexLen is the length of a trace or span id in hex characters.
const idHexLen = 16

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func newID() string {
	var b [idHexLen / 2]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Span is one timed node of a trace tree. The exported fields are the
// wire form (NDJSON export and cross-process import both use them); the
// unexported fields exist only on live spans created by a Tracer.
//
// A live span's attribute map is guarded, so SetAttr and Finish are
// safe from any goroutine; Finish freezes a copy into the store exactly
// once (later calls are no-ops), and methods on a nil *Span are no-ops,
// so lower layers thread spans without caring whether tracing is on.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Service names the emitting process role ("ximdd", "ximdc").
	Service string `json:"service,omitempty"`
	// StartUnixMS is the wall-clock anchor, set only on process-local
	// subtree roots (Root and Adopt spans).
	StartUnixMS int64 `json:"start_unix_ms,omitempty"`
	// StartOffMS is the monotonic offset from the local anchor.
	StartOffMS float64 `json:"start_off_ms"`
	// Ms is the span's monotonic duration in fractional milliseconds.
	Ms float64 `json:"ms"`
	// Attrs are string key/value annotations (job_id, digest, worker,
	// drop_reason, ...), frozen at Finish.
	Attrs map[string]string `json:"attrs,omitempty"`

	t      *Tracer
	anchor time.Time // local subtree root's start; shared by descendants
	start  time.Time
	live   *spanLive // nil on imported/frozen spans
}

// spanLive is the mutable state of an in-flight span, behind a pointer
// so Span values can be copied into the store without copying a lock.
type spanLive struct {
	mu    sync.Mutex
	attrs map[string]string
	done  bool
}

// Tracer mints spans for one service into one store.
type Tracer struct {
	service string
	store   *SpanStore
}

// NewTracer returns a Tracer stamping Service=service whose finished
// spans land in store.
func NewTracer(service string, store *SpanStore) *Tracer {
	return &Tracer{service: service, store: store}
}

func (t *Tracer) newSpan(traceID, parentID, name string, root bool) *Span {
	now := time.Now()
	s := &Span{
		TraceID:  traceID,
		SpanID:   newID(),
		ParentID: parentID,
		Name:     name,
		Service:  t.service,
		t:        t,
		anchor:   now,
		start:    now,
		live:     &spanLive{},
	}
	if root {
		s.StartUnixMS = now.UnixMilli()
	}
	return s
}

// Root starts a new trace: fresh trace id, wall-clock anchor.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(newID(), "", name, true)
}

// Adopt continues a remote trace: same trace id, parented under the
// remote span. The span anchors wall-clock locally — it is the root of
// this process's subtree.
func (t *Tracer) Adopt(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.Root(name)
	}
	return t.newSpan(sc.TraceID, sc.SpanID, name, true)
}

// Child starts a child span sharing the receiver's local anchor. Safe
// to call concurrently for siblings: it only reads the parent's
// immutable fields.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		TraceID:    s.TraceID,
		SpanID:     newID(),
		ParentID:   s.SpanID,
		Name:       name,
		Service:    s.Service,
		StartOffMS: clampMS(now.Sub(s.anchor)),
		t:          s.t,
		anchor:     s.anchor,
		start:      now,
		live:       &spanLive{},
	}
}

// Context returns the propagation context for parenting remote
// children under this span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SetAttr annotates the span; no-op after Finish or on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.live == nil {
		return
	}
	s.live.mu.Lock()
	if !s.live.done {
		if s.live.attrs == nil {
			s.live.attrs = make(map[string]string, 4)
		}
		s.live.attrs[key] = value
	}
	s.live.mu.Unlock()
}

// SetAttrInt annotates the span with a decimal integer value.
func (s *Span) SetAttrInt(key string, value uint64) {
	s.SetAttr(key, strconv.FormatUint(value, 10))
}

// Finish freezes the span — duration from the monotonic clock — and
// appends a copy to the tracer's store. Exactly once; later calls and
// nil receivers are no-ops.
func (s *Span) Finish() { s.finish(time.Since(s.startTime()), false) }

// FinishWith freezes the span with a pre-measured duration, backdating
// its start offset — for phases measured before the span object
// existed (e.g. decode happened while validating the request).
func (s *Span) FinishWith(d time.Duration) { s.finish(d, true) }

func (s *Span) startTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

func (s *Span) finish(d time.Duration, backdate bool) {
	if s == nil || s.live == nil {
		return
	}
	s.live.mu.Lock()
	if s.live.done {
		s.live.mu.Unlock()
		return
	}
	s.live.done = true
	attrs := s.live.attrs
	s.live.mu.Unlock()

	cp := *s
	cp.Ms = clampMS(d)
	if backdate {
		if off := clampMS(time.Since(s.anchor)) - cp.Ms; off > 0 {
			cp.StartOffMS = off
		} else {
			cp.StartOffMS = 0
		}
	}
	if len(attrs) > 0 {
		cp.Attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			cp.Attrs[k] = v
		}
	}
	cp.t, cp.live = nil, nil
	if s.t != nil && s.t.store != nil {
		s.t.store.Add(cp)
	}
}

func clampMS(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond)
}

// SpanStore is a bounded in-memory store of finished spans: a mutex
// around the flight recorder's Ring (the Ring itself is single-writer
// by contract), evicting oldest-first once full. It holds frozen Span
// values only — local Finish copies and cross-process imports.
//
// byTrace indexes the ring by trace id: each trace's ring slots, oldest
// first. The ring evicts its globally oldest span, which is therefore
// also the oldest of its own trace — always the head of that trace's
// slot list — so eviction pops one head and Trace copies only the
// trace's own spans instead of the whole ring.
type SpanStore struct {
	mu      sync.Mutex
	ring    *Ring[Span]
	byTrace map[string][]int32
}

// DefaultSpanStoreSize is the default retention: plenty for thousands
// of jobs' phase spans at well under a kilobyte each.
const DefaultSpanStoreSize = 8192

// NewSpanStore returns a store retaining the last capacity spans;
// capacity <= 0 selects DefaultSpanStoreSize.
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanStoreSize
	}
	return &SpanStore{ring: NewRing[Span](capacity), byTrace: make(map[string][]int32)}
}

// Add appends one finished span, evicting the oldest when full. Used
// by Finish and by cross-process import (coordinator pulling worker
// spans).
func (st *SpanStore) Add(sp Span) {
	st.mu.Lock()
	slot, evicted := st.ring.nextSlot()
	if evicted != nil {
		if slots := st.byTrace[evicted.TraceID]; len(slots) > 1 {
			st.byTrace[evicted.TraceID] = slots[1:]
		} else {
			delete(st.byTrace, evicted.TraceID)
		}
	}
	st.ring.Append(sp)
	st.byTrace[sp.TraceID] = append(st.byTrace[sp.TraceID], int32(slot))
	st.mu.Unlock()
}

// Len returns the number of retained spans.
func (st *SpanStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ring.Len()
}

// Snapshot returns the retained spans, oldest first.
func (st *SpanStore) Snapshot() []Span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ring.Snapshot()
}

// Trace returns every retained span of one trace, oldest first. Its
// cost follows the trace's own span count, not the store's.
func (st *SpanStore) Trace(traceID string) []Span {
	st.mu.Lock()
	defer st.mu.Unlock()
	slots := st.byTrace[traceID]
	if len(slots) == 0 {
		return nil
	}
	out := make([]Span, len(slots))
	for i, slot := range slots {
		out[i] = st.ring.buf[slot]
	}
	return out
}

// TraceFilter selects traces for SpanStore.Summaries. Zero values
// match everything; Job/Sweep/Digest match a trace when any of its
// spans carries the corresponding attribute (job_id, sweep_id,
// digest); MinMS drops traces whose root duration is shorter.
type TraceFilter struct {
	Job    string
	Sweep  string
	Digest string
	MinMS  float64
}

// TraceSummary is one entry of GET /v1/traces.
type TraceSummary struct {
	TraceID     string  `json:"trace_id"`
	Root        string  `json:"root,omitempty"`
	Service     string  `json:"service,omitempty"`
	StartUnixMS int64   `json:"start_unix_ms,omitempty"`
	Ms          float64 `json:"ms"`
	Spans       int     `json:"spans"`
	// JobIDs and Digest aggregate the matching attrs across the
	// trace's spans, for quick scanning.
	JobIDs []string `json:"job_ids,omitempty"`
	Digest string   `json:"digest,omitempty"`
}

// Summaries groups retained spans by trace, newest trace first.
func (st *SpanStore) Summaries(f TraceFilter) []TraceSummary {
	all := st.Snapshot()
	byTrace := make(map[string][]Span)
	order := make([]string, 0, 16) // trace ids, oldest first
	for _, sp := range all {
		if _, seen := byTrace[sp.TraceID]; !seen {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- { // newest first
		spans := byTrace[order[i]]
		if sum, ok := summarize(order[i], spans, f); ok {
			out = append(out, sum)
		}
	}
	return out
}

func summarize(traceID string, spans []Span, f TraceFilter) (TraceSummary, bool) {
	sum := TraceSummary{TraceID: traceID, Spans: len(spans)}
	ids := make(map[string]struct{})
	jobMatch, sweepMatch, digestMatch := f.Job == "", f.Sweep == "", f.Digest == ""
	inSet := make(map[string]bool, len(spans))
	for _, sp := range spans {
		inSet[sp.SpanID] = true
	}
	var root *Span
	for i := range spans {
		sp := &spans[i]
		if sp.Attrs != nil {
			if id := sp.Attrs["job_id"]; id != "" {
				ids[id] = struct{}{}
				if id == f.Job {
					jobMatch = true
				}
			}
			if sp.Attrs["sweep_id"] == f.Sweep && f.Sweep != "" {
				sweepMatch = true
			}
			if d := sp.Attrs["digest"]; d != "" {
				if sum.Digest == "" {
					sum.Digest = d
				}
				if d == f.Digest {
					digestMatch = true
				}
			}
		}
		// The summary root is the trace's best top: a span with no
		// retained parent, preferring true roots (no parent at all) and,
		// among those, the longest.
		if sp.ParentID == "" || !inSet[sp.ParentID] {
			switch {
			case root == nil:
				root = sp
			case (sp.ParentID == "") && root.ParentID != "":
				root = sp
			case (sp.ParentID == "") == (root.ParentID == "") && sp.Ms > root.Ms:
				root = sp
			}
		}
	}
	if root != nil {
		sum.Root, sum.Service = root.Name, root.Service
		sum.StartUnixMS, sum.Ms = root.StartUnixMS, root.Ms
	}
	if !jobMatch || !sweepMatch || !digestMatch || sum.Ms < f.MinMS {
		return TraceSummary{}, false
	}
	for id := range ids {
		sum.JobIDs = append(sum.JobIDs, id)
	}
	sort.Strings(sum.JobIDs)
	return sum, true
}

// TreeLine is one NDJSON line of GET /v1/traces/{id}: the span plus
// its computed depth in the assembled tree (0 = root). Lines come in
// depth-first order, so streaming clients can indent as they read.
type TreeLine struct {
	Span
	Depth int `json:"depth"`
}

// AssembleTree orders one trace's spans depth-first. Roots are spans
// whose parent is absent from the set (true roots, or subtree roots
// whose remote parent was never imported); siblings order by wall
// anchor, then monotonic offset, then span id — deterministic for a
// fixed span set.
func AssembleTree(spans []Span) []TreeLine {
	// Dedupe by span id (first occurrence wins): cross-process import
	// can deliver the same span twice, and a duplicated node would
	// multiply every subtree under it.
	inSet := make(map[string]bool, len(spans))
	uniq := spans[:0:0]
	for _, sp := range spans {
		if inSet[sp.SpanID] {
			continue
		}
		inSet[sp.SpanID] = true
		uniq = append(uniq, sp)
	}
	spans = uniq
	children := make(map[string][]Span)
	var roots []Span
	for _, sp := range spans {
		if sp.ParentID != "" && inSet[sp.ParentID] && sp.ParentID != sp.SpanID {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	order := func(s []Span) {
		sort.SliceStable(s, func(a, b int) bool {
			if s[a].StartUnixMS != s[b].StartUnixMS {
				return s[a].StartUnixMS < s[b].StartUnixMS
			}
			if s[a].StartOffMS != s[b].StartOffMS {
				return s[a].StartOffMS < s[b].StartOffMS
			}
			return s[a].SpanID < s[b].SpanID
		})
	}
	order(roots)
	for _, c := range children {
		order(c)
	}
	out := make([]TreeLine, 0, len(spans))
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		if depth > len(spans) { // cycle guard; cannot happen with minted ids
			return
		}
		out = append(out, TreeLine{Span: sp, Depth: depth})
		for _, c := range children[sp.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// traceListBody is the JSON body of GET /v1/traces.
type traceListBody struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

// TraceListHandler serves GET /v1/traces over the store: trace
// summaries, newest first, filtered by ?job=, ?sweep=, ?digest=,
// ?min_ms= and capped by ?limit=.
func TraceListHandler(st *SpanStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := TraceFilter{Job: q.Get("job"), Sweep: q.Get("sweep"), Digest: q.Get("digest")}
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeTraceError(w, http.StatusBadRequest, fmt.Sprintf("bad min_ms %q: %v", v, err))
				return
			}
			f.MinMS = ms
		}
		sums := st.Summaries(f)
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeTraceError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", v))
				return
			}
			if n < len(sums) {
				sums = sums[:n]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(traceListBody{Count: len(sums), Traces: sums})
	})
}

// TraceTreeHandler serves GET /v1/traces/{id}: the assembled span tree
// as NDJSON in depth-first order, one TreeLine per line. 404 when the
// store retains no span of that trace.
func TraceTreeHandler(st *SpanStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans := st.Trace(id)
		if len(spans) == 0 {
			writeTraceError(w, http.StatusNotFound, fmt.Sprintf("unknown trace: %s", id))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		for _, line := range AssembleTree(spans) {
			if err := enc.Encode(line); err != nil {
				return // client went away
			}
		}
	})
}

func writeTraceError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ParseTraceNDJSON decodes a GET /v1/traces/{id} NDJSON body back into
// spans — the cross-process import path (the coordinator stitching
// worker subtrees into its fleet-wide store). Unknown fields (depth)
// are ignored; a malformed line fails the whole parse.
func ParseTraceNDJSON(body []byte) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sp Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return nil, fmt.Errorf("obs: bad span line %q: %w", line, err)
		}
		out = append(out, sp)
	}
	return out, sc.Err()
}
