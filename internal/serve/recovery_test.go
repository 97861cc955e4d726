package serve

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ximd/internal/ckpt"
	"ximd/internal/runner"
)

// countdownSrc runs long enough (~6000 cycles) to accumulate several
// checkpoints at a small interval, then halts with a memory-visible
// result at 300.
const countdownSrc = `
.fus 1
.fu 0
        iadd #2000, #0, r1
loop:   isub r1, #1, r1
        gt r1, #0
        nop => if cc0 loop fin
fin:    store r1, #300
        nop => halt
`

func countdownJob() JobRequest {
	return JobRequest{
		Arch:      "ximd",
		Source:    countdownSrc,
		Seed:      7,
		MaxCycles: 50_000,
		Peeks:     []string{"300:2"},
		Profile:   true,
	}
}

// referenceDoc runs req on a fresh volatile server and returns its raw
// result document: the byte-identity baseline for recovered jobs.
func referenceDoc(t *testing.T, req JobRequest) string {
	t.Helper()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	sr := submit(t, ts, req)
	st, body := waitTerminal(t, ts, sr.ID)
	if st.Status != StateDone {
		t.Fatalf("reference job %s: %s (%s)", sr.ID, st.Status, st.Error)
	}
	return string(resultField(t, body))
}

// makeCheckpoint runs the request's program with a checkpoint sink and
// returns a mid-run checkpoint, round-tripped through the wire encoding
// exactly as a crash-restart would read it.
func makeCheckpoint(t *testing.T, req JobRequest) *ckpt.Checkpoint {
	t.Helper()
	prog, err := runner.Load(runner.Arch(req.Arch), []byte(req.Source))
	if err != nil {
		t.Fatal(err)
	}
	spec := runner.Spec{MaxCycles: req.MaxCycles, Seed: req.Seed, Inject: req.Inject}
	var frames [][]byte
	opts := runner.Options{
		CheckpointEvery: 256,
		Checkpoint: func(c *ckpt.Checkpoint) {
			p, err := c.Encode()
			if err != nil {
				t.Errorf("encode checkpoint: %v", err)
				return
			}
			frames = append(frames, p)
		},
	}
	if _, err := runner.Run(t.Context(), prog, spec, opts); err != nil {
		t.Fatalf("checkpoint source run: %v", err)
	}
	if len(frames) < 2 {
		t.Fatalf("expected several checkpoints, got %d", len(frames))
	}
	c, err := ckpt.Decode(frames[len(frames)/2])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSubmitJournalsBefore202 holds the WAL ordering: once a submission
// is acknowledged its accepted record (with the full request) is on
// disk, and a terminal job leaves a terminal record and no checkpoint
// file.
func TestSubmitJournalsBefore202(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, StateDir: dir})
	req := tprocJob()
	sr := submit(t, ts, req)

	// The 202 has been received: the accepted record must already be
	// durable, whatever state the job is in now.
	data, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _ := ckpt.ScanFrames(data)
	foundAccepted := false
	for _, p := range payloads {
		var rec journalRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatalf("journal frame: %v: %s", err, p)
		}
		if rec.T == journalAccepted && rec.ID == sr.ID {
			foundAccepted = true
			if rec.Req == nil || rec.Req.Source != req.Source {
				t.Fatalf("accepted record does not carry the request: %+v", rec.Req)
			}
		}
	}
	if !foundAccepted {
		t.Fatalf("no accepted record for %s in journal after 202", sr.ID)
	}

	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateDone {
		t.Fatalf("job: %s (%s)", st.Status, st.Error)
	}
	data, err = os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _ = ckpt.ScanFrames(data)
	foundTerminal := false
	for _, p := range payloads {
		var rec journalRecord
		_ = json.Unmarshal(p, &rec)
		if rec.T == journalTerminal && rec.ID == sr.ID {
			foundTerminal = true
		}
	}
	if !foundTerminal {
		t.Fatalf("no terminal record for %s after completion", sr.ID)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt", sr.ID+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file for terminal job still present (err=%v)", err)
	}
}

// TestRecoveryClassification builds the on-disk state a kill -9 leaves
// behind — pending jobs with and without checkpoints, a finished job,
// checkpoint debris — restarts the service on it, and checks every
// recovery path: classification counts, original ids, byte-identical
// result documents, id-sequence continuity, and checkpoint cleanup.
func TestRecoveryClassification(t *testing.T) {
	req := countdownJob()
	want := referenceDoc(t, req)

	dir := t.TempDir()
	// j-1: accepted, never started, no checkpoint  -> requeued
	// j-2: accepted, started, no checkpoint        -> cold rerun
	// j-3: accepted, started, valid checkpoint     -> resumed
	// j-4: accepted, started, stale-key checkpoint -> cold rerun
	// j-5: accepted and terminal                   -> not replayed; its
	//      leftover checkpoint file is crash debris and must be swept
	jnl, pending, _, err := openJournal(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending jobs", len(pending))
	}
	r := req
	for _, rec := range []journalRecord{
		{T: journalAccepted, ID: "j-1", Req: &r},
		{T: journalAccepted, ID: "j-2", Req: &r},
		{T: journalStarted, ID: "j-2"},
		{T: journalAccepted, ID: "j-3", Req: &r},
		{T: journalStarted, ID: "j-3"},
		{T: journalAccepted, ID: "j-4", Req: &r},
		{T: journalStarted, ID: "j-4"},
		{T: journalAccepted, ID: "j-5", Req: &r},
		{T: journalTerminal, ID: "j-5"},
	} {
		if _, err := jnl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jnl.close()

	c := makeCheckpoint(t, req)
	store, err := ckpt.OpenStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	c.Key = checkpointKey(&r)
	if _, err := store.Save("j-3", c); err != nil {
		t.Fatal(err)
	}
	stale := *c
	stale.Key = "not-the-right-key"
	if _, err := store.Save("j-4", &stale); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save("j-5", c); err != nil { // terminal-job debris
		t.Fatal(err)
	}
	store.Close()

	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 4, StateDir: dir, CheckpointEvery: 256})
	rec := s.Recovery()
	if rec.Err != nil {
		t.Fatalf("recovery error: %v", rec.Err)
	}
	if rec.Requeued != 1 || rec.Resumed != 1 || rec.ColdRerun != 2 || rec.Dropped != 0 {
		t.Fatalf("recovery = %+v, want 1 requeued, 1 resumed, 2 cold-rerun, 0 dropped", rec)
	}

	for _, id := range []string{"j-1", "j-2", "j-3", "j-4"} {
		st, body := waitTerminal(t, ts, id)
		if st.Status != StateDone {
			t.Fatalf("%s: %s (%s)", id, st.Status, st.Error)
		}
		if got := string(resultField(t, body)); got != want {
			t.Fatalf("%s result diverges from uninterrupted run:\n got %s\nwant %s", id, got, want)
		}
	}
	// The finished job is gone: terminal journal records are not replayed.
	resp, _ := getBody(t, ts.URL+"/v1/jobs/j-5")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("terminal job j-5: status %d, want 404", resp.StatusCode)
	}
	// Ids continue past every journaled id, terminal ones included.
	sr := submit(t, ts, tprocJob())
	if sr.ID != "j-6" {
		t.Fatalf("post-recovery id = %s, want j-6", sr.ID)
	}
	waitTerminal(t, ts, sr.ID)

	// All terminal: every checkpoint file (including the j-5 debris and
	// the stale j-4 one) must be gone.
	left, err := filepath.Glob(filepath.Join(dir, "ckpt", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("checkpoint files left after all jobs terminal: %v", left)
	}
}

// TestRecoveryRejectsOutOfProgramPC restarts a started job whose
// checkpoint decodes but carries a PC past the end of the program
// (format drift the key cannot see). Restore must refuse it, so the
// job ends in a cold rerun with the uninterrupted result — on both
// snapshot layouts — instead of panicking in the first Step.
func TestRecoveryRejectsOutOfProgramPC(t *testing.T) {
	for _, arch := range []string{"ximd", "vliw"} {
		t.Run(arch, func(t *testing.T) {
			req := countdownJob()
			req.Arch = arch
			want := referenceDoc(t, req)

			dir := t.TempDir()
			jnl, _, _, err := openJournal(filepath.Join(dir, "jobs.log"))
			if err != nil {
				t.Fatal(err)
			}
			r := req
			for _, rec := range []journalRecord{
				{T: journalAccepted, ID: "j-1", Req: &r},
				{T: journalStarted, ID: "j-1"},
			} {
				if _, err := jnl.append(rec); err != nil {
					t.Fatal(err)
				}
			}
			jnl.close()

			c := makeCheckpoint(t, req)
			c.Key = checkpointKey(&r)
			payload, err := c.Encode()
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot follows the checkpoint header and begins with
			// its cycle; the XIMD layout then has a per-FU PC count, the
			// VLIW layout the single PC.
			off := 4 + len(ckpt.Magic) + 2 + 4 + len(c.Arch) + 4 + len(c.Key) + 8 + 8 + 1 + 8
			if arch == "ximd" {
				off += 4
			}
			binary.LittleEndian.PutUint16(payload[off:], 40000)
			bad, err := ckpt.Decode(payload)
			if err != nil {
				t.Fatalf("patched checkpoint no longer decodes: %v", err)
			}
			store, err := ckpt.OpenStore(filepath.Join(dir, "ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Save("j-1", bad); err != nil {
				t.Fatal(err)
			}
			store.Close()

			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 256})
			if rec := s.Recovery(); rec.Err != nil || rec.Resumed != 1 {
				t.Fatalf("recovery = %+v, want the job classified resumable", rec)
			}
			st, body := waitTerminal(t, ts, "j-1")
			if st.Status != StateDone {
				t.Fatalf("j-1: %s (%s)", st.Status, st.Error)
			}
			if got := string(resultField(t, body)); got != want {
				t.Fatalf("cold rerun result diverges:\n got %s\nwant %s", got, want)
			}
			if n := s.mgr.met.jobsColdRun.Value(); n != 1 {
				t.Fatalf("cold reruns = %d, want 1 (the rejected checkpoint)", n)
			}
		})
	}
}

// TestRecoveryTornJournalTail kills the journal mid-frame: the torn
// tail is discarded, the intact prefix replays.
func TestRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	jnl, _, _, err := openJournal(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	r := tprocJob()
	if _, err := jnl.append(journalRecord{T: journalAccepted, ID: "j-1", Req: &r}); err != nil {
		t.Fatal(err)
	}
	jnl.close()
	f, err := os.OpenFile(filepath.Join(dir, "jobs.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x40, 0xde, 0xad}); err != nil { // half a frame
		t.Fatal(err)
	}
	f.Close()

	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, StateDir: dir})
	rec := s.Recovery()
	if rec.Err != nil || rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want 1 requeued and no error", rec)
	}
	st, _ := waitTerminal(t, ts, "j-1")
	if st.Status != StateDone {
		t.Fatalf("j-1: %s (%s)", st.Status, st.Error)
	}
}

// TestRecoveryErrRunsVolatile covers an unopenable state dir: the
// server reports the error, keeps serving, and simply is not durable —
// the caller (cmd/ximdd) decides whether that is fatal.
func TestRecoveryErrRunsVolatile(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the checkpoint directory must go.
	if err := os.WriteFile(filepath.Join(dir, "ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, StateDir: dir})
	if s.Recovery().Err == nil {
		t.Fatal("expected a recovery error for an unopenable state dir")
	}
	sr := submit(t, ts, tprocJob())
	st, _ := waitTerminal(t, ts, sr.ID)
	if st.Status != StateDone {
		t.Fatalf("volatile job: %s (%s)", st.Status, st.Error)
	}
}

// TestResumedJobKeepsCheckpointing holds the restart-again story: a
// resumed job must itself write checkpoints, so a second crash resumes
// from post-restart progress rather than the original file.
func TestResumedJobKeepsCheckpointing(t *testing.T) {
	req := countdownJob()
	dir := t.TempDir()
	jnl, _, _, err := openJournal(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	r := req
	if _, err := jnl.append(journalRecord{T: journalAccepted, ID: "j-1", Req: &r}); err != nil {
		t.Fatal(err)
	}
	jnl.close()
	c := makeCheckpoint(t, req)
	store, err := ckpt.OpenStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	c.Key = checkpointKey(&r)
	if _, err := store.Save("j-1", c); err != nil {
		t.Fatal(err)
	}
	store.Close()

	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 256})
	if rec := s.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery = %+v, want 1 resumed", rec)
	}
	st, _ := waitTerminal(t, ts, "j-1")
	if st.Status != StateDone {
		t.Fatalf("j-1: %s (%s)", st.Status, st.Error)
	}
	if got := s.mgr.met.ckptWrites.Value(); got == 0 {
		t.Fatal("resumed job wrote no checkpoints")
	}
}
