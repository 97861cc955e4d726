package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ximd/internal/archive"
	"ximd/internal/obs"
	"ximd/internal/serve"
)

// fetchTree pulls the assembled NDJSON tree for one trace from the
// coordinator and decodes the depth-annotated lines.
func fetchTree(t *testing.T, base, traceID string) []obs.TreeLine {
	t.Helper()
	resp, body := getBody(t, base+"/v1/traces/"+traceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: %d: %s", traceID, resp.StatusCode, body)
	}
	var lines []obs.TreeLine
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var l obs.TreeLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("bad tree line %s: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return lines
}

func waitFabricDone(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, body := getBody(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == serve.StateDone || st.Status == serve.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFabricJobTraceTree: one fabric job produces a single fleet-wide
// tree — coordinator request root, job, placement, then the worker's
// own subtree (job/execute/run) spliced in under the placement span —
// and the coordinator's job status carries the trace id.
func TestFabricJobTraceTree(t *testing.T) {
	f := newFleet(t, 2, serve.Options{Workers: 1, QueueDepth: 8}, nil)

	remote := obs.SpanContext{TraceID: "aabbccdd00112233", SpanID: "1122334455667788"}
	b, _ := json.Marshal(tprocBase())
	req, err := http.NewRequest("POST", f.coordTS.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(remote))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok || sc.TraceID != remote.TraceID {
		t.Fatalf("202 header = %q, want adopted trace %s", resp.Header.Get(obs.TraceHeader), remote.TraceID)
	}

	st := waitFabricDone(t, f.coordTS.URL, sub.ID)
	if st.Status != serve.StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.TraceID != remote.TraceID {
		t.Fatalf("job status trace_id = %q, want %s", st.TraceID, remote.TraceID)
	}

	lines := fetchTree(t, f.coordTS.URL, st.TraceID)
	depth := map[string][]int{}
	svc := map[string][]string{}
	for _, l := range lines {
		depth[l.Name] = append(depth[l.Name], l.Depth)
		svc[l.Name] = append(svc[l.Name], l.Service)
	}
	// Coordinator side: request (adopted, so ParentID set but parent
	// not retained -> root), job, placement.
	for _, want := range []string{"request", "placement", "queue_wait", "execute", "run"} {
		if len(depth[want]) == 0 {
			t.Errorf("tree missing %q span: %+v", want, depth)
		}
	}
	// Both services appear in one tree: the coordinator's spans and the
	// worker's fetched subtree.
	services := map[string]bool{}
	for _, l := range lines {
		services[l.Service] = true
	}
	if !services["ximdc"] || !services["ximdd"] {
		t.Fatalf("tree services = %v, want both ximdc and ximdd", services)
	}
	// Depth: the worker's job span adopted the placement context, so
	// coordinator->worker->execute is at least 3 levels deep.
	if len(depth["run"]) == 0 || depth["run"][0] < 4 {
		t.Fatalf("run span depth = %v, want >= 4 (request/job/placement/worker job/execute/run)", depth["run"])
	}
	// There are two "job" spans — the coordinator's and the worker's —
	// in different services.
	jobSvcs := map[string]bool{}
	for _, s := range svc["job"] {
		jobSvcs[s] = true
	}
	if !jobSvcs["ximdc"] || !jobSvcs["ximdd"] {
		t.Fatalf("job spans come from %v, want both services", svc["job"])
	}
}

// TestStolenJobTraceNamesBothWorkers: a steal shows up in the trace as
// two placement subtrees naming distinct workers, the loser closed with
// drop_reason=superseded.
func TestStolenJobTraceNamesBothWorkers(t *testing.T) {
	f := newFleet(t, 2, serve.Options{Workers: 1, QueueDepth: 32, JobTimeout: 30 * time.Second}, func(o *Options) {
		o.StealAfter = 50 * time.Millisecond
		o.MaxInflight = 64
	})

	digest := archive.ProgramDigest("ximd", []byte(tprocSrc))
	preferred := f.coord.rank(digest)[0]
	occupy := serve.JobRequest{Arch: "ximd", Source: spinSrc, MaxCycles: 4_000_000_000}
	resp, body := postJSON(t, preferred.url+"/v1/jobs", occupy)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy: status %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, f.coordTS.URL+"/v1/jobs", tprocBase())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	st := waitFabricDone(t, f.coordTS.URL, sub.ID)
	if st.Status != serve.StateDone || !st.Stolen {
		t.Fatalf("want stolen done job, got %+v", st)
	}

	lines := fetchTree(t, f.coordTS.URL, st.TraceID)
	workers := map[string]bool{}
	superseded, stole := 0, 0
	for _, l := range lines {
		if l.Name != "placement" {
			continue
		}
		workers[l.Attrs["worker"]] = true
		if l.Attrs["drop_reason"] == "superseded" {
			superseded++
		}
		if l.Attrs["steal"] == "true" {
			stole++
		}
	}
	if len(workers) != 2 {
		t.Fatalf("placement spans name workers %v, want two distinct", workers)
	}
	if superseded != 1 || stole != 1 {
		t.Fatalf("placements: %d superseded, %d stolen, want 1 and 1", superseded, stole)
	}
	// The winner's worker-side subtree is present: an execute span from
	// service ximdd under one of the placements.
	foundExec := false
	for _, l := range lines {
		if l.Name == "execute" && l.Service == "ximdd" {
			foundExec = true
		}
	}
	if !foundExec {
		t.Fatal("no worker-side execute span spliced into the stolen job's tree")
	}
}

// TestFleetHeartbeatAgeAndPollQuantiles: GET /v1/fleet reports each
// worker's last-heartbeat age and the status-poll latency quantiles.
func TestFleetHeartbeatAgeAndPollQuantiles(t *testing.T) {
	f := newFleet(t, 1, serve.Options{Workers: 1, QueueDepth: 8}, nil)
	resp, body := postJSON(t, f.coordTS.URL+"/v1/jobs", tprocBase())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitFabricDone(t, f.coordTS.URL, sub.ID)

	resp, body = getBody(t, f.coordTS.URL+"/v1/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	var fr FleetResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Workers) != 1 {
		t.Fatalf("fleet = %s", body)
	}
	age := fr.Workers[0].LastHeartbeatAgeMS
	if age == nil || *age < 0 {
		t.Fatalf("last_heartbeat_age_ms = %v, want present and >= 0", age)
	}
	// At least one status poll ran to observe the terminal state, so
	// the quantiles are positive and ordered.
	if fr.PollP50MS <= 0 || fr.PollP99MS < fr.PollP50MS {
		t.Fatalf("poll quantiles p50=%g p99=%g, want 0 < p50 <= p99", fr.PollP50MS, fr.PollP99MS)
	}
}
