package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/joblog"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// durableServer boots an in-process daemon with its journal under
// dataDir — the fault-injection, resume and online-compaction tests
// don't need the real-binary SIGKILL harness, just the durability
// plumbing. Recovery must return within a deadline: a resume that
// wedges on its own backlog fails the test instead of hanging it.
func durableServer(t *testing.T, dataDir string, compactBytes int64) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(0)
	srv.compactBytes = compactBytes
	opened := make(chan error, 1)
	go func() { opened <- srv.openDurability(dataDir) }()
	select {
	case err := <-opened:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("journal recovery did not return within 30s")
	}
	t.Cleanup(srv.closeDurability)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// crashCopy copies the journal under dataDir into a fresh data dir, as
// a kill -9 at this instant would leave it (a clean drain would
// journal the running jobs' cancellation).
func crashCopy(t *testing.T, dataDir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dataDir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, "journal.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return crashDir
}

// finishEnergy seals ingest job id, waits for it to finish and returns
// its /energy document.
func finishEnergy(t *testing.T, base string, id int) []byte {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", base, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finish job %d = %d, want 200", id, resp.StatusCode)
	}
	waitStatus(t, base, id, "done")
	return getBytes(t, fmt.Sprintf("%s/v1/jobs/%d/energy", base, id))
}

// checkResumed recovers a daemon from the crash copy crashDir and
// requires ingest job id back running with pushed sessions, finishing
// to the same /energy document as the uninterrupted run (want).
func checkResumed(t *testing.T, crashDir string, id int, pushed int64, want []byte) {
	t.Helper()
	srv, ts := durableServer(t, crashDir, 0)
	if rec := srv.recovered; rec.Resumed != 1 || rec.ResumeFailed != 0 {
		t.Fatalf("recovery = %+v, want 1 resumed and none failed", rec)
	}
	var v jobView
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), &v)
	if v.Status != "running" || v.Pushed != pushed {
		t.Fatalf("resumed job = %q with %d pushed, want running with %d", v.Status, v.Pushed, pushed)
	}
	if got := finishEnergy(t, ts.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("resumed /energy differs from the uninterrupted run:\n want: %s\n got:  %s", want, got)
	}
}

// TestIngestFaultInjection drives the degrade-loudly contract end to
// end through HTTP: while the journal's fsync (or write) path is
// failing, a session batch must be refused with a 500 — neither
// journalled nor applied, so the producer may resend the same rows —
// and the failure must be visible in journal_append_errors_total and
// the injected-fault counter. Clearing the fault restores normal 200s,
// and a restart from the journal as a crash leaves it serves exactly
// the live job's state.
func TestIngestFaultInjection(t *testing.T) {
	dir := t.TempDir()
	srv, ts := durableServer(t, dir, 0)

	resp, v := postJob(t, ingestURL(ts.URL, "&name=faulty"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest job submission = %d, want 202", resp.StatusCode)
	}
	sessionsURL := fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID)

	// A clean batch first, so the stream has journalled state the faulty
	// batch must not disturb.
	sresp, out := postSessions(t, sessionsURL+"?watermark=3600", "text/csv", sessionRows(0, 10))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("clean batch = %d (%v), want 200", sresp.StatusCode, out)
	}

	for _, fault := range []struct {
		kind  string
		start int64
		f     joblog.Faults
	}{
		{"write", 3600, joblog.Faults{WriteErr: func([]byte) error { return os.ErrClosed }}},
		{"fsync", 4000, joblog.Faults{SyncErr: func() error { return os.ErrClosed }}},
	} {
		srv.jl.InjectFaults(&fault.f)
		sresp, out = postSessions(t, sessionsURL, "text/csv", sessionRows(fault.start, 5))
		if sresp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("batch with injected %s failure = %d (%v), want 500", fault.kind, sresp.StatusCode, out)
		}
		exp := scrapeMetrics(t, ts.URL)
		if got, _ := exp.Value(fmt.Sprintf(`consumelocald_journal_injected_faults_total{kind=%q}`, fault.kind)); got != 1 {
			t.Fatalf("injected_faults_total{kind=%q} = %g, want 1", fault.kind, got)
		}
	}
	exp := scrapeMetrics(t, ts.URL)
	if got, _ := exp.Value("consumelocald_journal_append_errors_total"); got < 2 {
		t.Fatalf("journal_append_errors_total = %g, want >= 2", got)
	}

	// Service resumes once the faults clear, and the refused rows never
	// reached the live stream.
	srv.jl.InjectFaults(nil)
	sresp, out = postSessions(t, sessionsURL+"?watermark=7200", "text/csv", sessionRows(5000, 5))
	if sresp.StatusCode != http.StatusOK || out["total_pushed"].(float64) != 15 {
		t.Fatalf("batch after clearing faults = %d %v, want 200 with 15 total", sresp.StatusCode, out)
	}

	// The journal on disk accounts exactly the acknowledged sessions: a
	// restart from it finishes to the live job's result.
	crashDir := crashCopy(t, dir)
	want := finishEnergy(t, ts.URL, v.ID)
	checkResumed(t, crashDir, v.ID, 15, want)
}

// TestResumeDeepTail is the restart-deadlock regression: a durable
// stream with one-minute windows and a 16-slot queue journals far more
// windows than the snapshot buffer and queue can hold together. The
// resume must re-feed that tail with the job's pump already draining
// snapshots — recovery returns within durableServer's deadline — and
// finish to the same result as the uninterrupted stream.
func TestResumeDeepTail(t *testing.T) {
	const batches, perBatch, spacing = 600, 10, 20
	dir := t.TempDir()
	_, ts := durableServer(t, dir, 0)
	resp, v := postJob(t, ts.URL+"/v1/jobs?source=ingest&horizon=14400&users=100&content=4&isps=2&window=60&capacity=16")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest job submission = %d, want 202", resp.StatusCode)
	}
	for i := int64(0); i < batches; i++ {
		url := fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", ts.URL, v.ID, (i+1)*spacing)
		if sresp, out := postSessions(t, url, "text/csv", sessionRows(i*spacing, perBatch)); sresp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d = %d (%v), want 200", i, sresp.StatusCode, out)
		}
	}
	crashDir := crashCopy(t, dir)
	want := finishEnergy(t, ts.URL, v.ID)
	checkResumed(t, crashDir, v.ID, batches*perBatch, want)
}

// TestOnlineCompaction exercises the background size-threshold pass
// while the daemon serves: a first ingest stream finishes (its batch
// records become foldable into the checkpoint), a second stream's
// pushes grow the journal past the threshold, and the compaction that
// fires must reclaim the finished stream's bytes, keep the counters
// honest, and leave a journal whose replay accounts every acknowledged
// session exactly — including the still-live second stream's tail (the
// checkpoint-subtraction invariant, live).
func TestOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(0)
	// Past the first stream's ~20 KiB of batch records, so no pass fires
	// while everything journalled is still a live tail (nothing to
	// reclaim); the second stream's pushes cross the line.
	srv.compactBytes = 32 << 10
	if err := srv.openDurability(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Stream A: push ~20 KiB of batches, then finish. Its payload stays
	// in the journal (a finished record clears only the replayed tail)
	// until a compaction folds it into the checkpoint.
	resp, a := postJob(t, ingestURL(ts.URL, "&name=finished-stream"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream A submission = %d, want 202", resp.StatusCode)
	}
	aTotal := 0
	for i := 0; i < 8; i++ {
		sresp, out := postSessions(t,
			fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", ts.URL, a.ID, (int64(i)+1)*600),
			"text/csv", sessionRows(int64(i)*600, 100))
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("stream A batch %d = %d (%v), want 200", i, sresp.StatusCode, out)
		}
		aTotal += 100
	}
	if _, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, a.ID), "", nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL, a.ID, "done")

	// Stream B: keep pushing until the threshold trips the background
	// pass. Compaction keeps B's whole tail (it is live) but folds A's.
	resp, b := postJob(t, ingestURL(ts.URL, "&name=live-stream"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream B submission = %d, want 202", resp.StatusCode)
	}
	bTotal := 0
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		exp := scrapeMetrics(t, ts.URL)
		if n, _ := exp.Value("consumelocald_journal_compactions_total"); n >= 1 {
			if reclaimed, _ := exp.Value("consumelocald_journal_compaction_reclaimed_bytes_total"); reclaimed <= 0 {
				t.Fatalf("compaction ran but reclaimed %g bytes", reclaimed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no online compaction within 30s")
		}
		sresp, out := postSessions(t,
			fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", ts.URL, b.ID, (int64(i)+1)*600),
			"text/csv", sessionRows(int64(i)*600, 100))
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("stream B batch %d = %d (%v), want 200", i, sresp.StatusCode, out)
		}
		bTotal += 100
	}

	// The compacted journal still serves: B is running with every push
	// accounted. Snapshot the journal as a crash would leave it (a clean
	// drain journals B's cancellation, which is not what a kill -9
	// produces) and replay the copy.
	var mid jobView
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, b.ID), &mid)
	if mid.Status != "running" || mid.Pushed != int64(bTotal) {
		t.Fatalf("stream B mid-stream view = %+v, want running with %d pushed", mid, bTotal)
	}
	crashDir := crashCopy(t, dir)
	ts.Close()
	srv.drainJobs(0)
	srv.closeDurability()

	jl, rec, err := joblog.Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if rec.Sessions != int64(aTotal+bTotal) {
		t.Fatalf("compacted journal replays %d sessions, want %d", rec.Sessions, aTotal+bTotal)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("compacted journal replays %d jobs, want 2", len(rec.Jobs))
	}
	if st := rec.Jobs[0]; st.ID != a.ID || st.Status != "done" || st.Sessions != int64(aTotal) {
		t.Fatalf("stream A after compaction: %+v", st)
	}
	st := rec.Jobs[1]
	if st.ID != b.ID || st.Status != "" || st.Sessions != int64(bTotal) || st.Created == nil || st.Created.Query == "" {
		t.Fatalf("stream B after compaction: %+v", st)
	}
	if len(st.Tail) == 0 {
		t.Fatal("live stream's batch tail lost by online compaction")
	}
}

// TestResumeFailsLoudly feeds recovery a journal whose batch tail does
// not re-apply — out of order, as a daemon that journalled batches
// after pushing them could leave it when producers raced. The resume is
// abandoned and the job failed with the daemon-restart error; the
// half-built pipeline unwinds without journalling a terminal record of
// its own, so the failure recovery recorded is what the next restart
// sees.
func TestResumeFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := joblog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	query := "source=ingest&horizon=14400&users=100&content=4&isps=2&window=3600"
	for _, r := range []joblog.Record{
		{Type: joblog.TypeCreated, Job: 1, Kind: "ingest", Mode: "streaming", Query: query},
		{Type: joblog.TypeBatch, Job: 1, Sessions: 3, CSV: sessionRows(100, 3)},
		{Type: joblog.TypeBatch, Job: 1, Sessions: 3, CSV: sessionRows(50, 3)},
	} {
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := durableServer(t, dir, 0)
	if rec := srv.recovered; rec.Resumed != 0 || rec.ResumeFailed != 1 {
		t.Fatalf("recovery = %+v, want 1 resume failed", rec)
	}
	var v jobView
	getJSON(t, ts.URL+"/v1/jobs/1", &v)
	if v.Status != "failed" || v.Error != errInterrupted || v.Pushed != 6 {
		t.Fatalf("job after a failed resume = %+v, want failed with the restart error and 6 journalled sessions", v)
	}
	waitFor(t, "the abandoned pipeline to unwind", func() bool {
		n, _ := scrapeMetrics(t, ts.URL).Value(`consumelocald_jobs_finished_total{status="cancelled"}`)
		return n == 1
	})
	cj, rec, err := joblog.Open(crashCopy(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	if len(rec.Jobs) != 1 {
		t.Fatalf("journal after a failed resume holds %d jobs, want 1", len(rec.Jobs))
	}
	if st := rec.Jobs[0]; st.Status != "failed" || st.Error != errInterrupted {
		t.Fatalf("journal after a failed resume records job 1 %q (%s), want failed with the restart error", st.Status, st.Error)
	}
}

// TestRecoverJournalledParallelJobs recovers a journal written while the
// daemon still accepted engine=parallel. That mode no longer parses, so
// recovery degrades it to the zero mode (streaming) instead of refusing
// the journal: the done job re-serves its stored result, and the job
// that was running when the daemon died comes back failed as
// interrupted.
func TestRecoverJournalledParallelJobs(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := joblog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := joblog.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	meta := trace.Meta{Name: "old", Epoch: started, HorizonSec: 86400, NumUsers: 100, NumContent: 4, NumISPs: 2}
	total := sim.Tally{TotalBits: 8e9, ServerBits: 5e9, LayerBits: [energy.NumLayers]float64{2e9, 1e9}}
	snap := engine.Snapshot{ToSec: 86400, SessionsSeen: 40, Swarms: 3, Delta: total, Cumulative: total, Final: true}
	if err := store.Put(1, storedResult{
		ID: 1, Name: "done", Kind: "generator", Mode: "parallel", Started: started, Meta: meta,
		Snapshots: 1, Snapshot: snap, Result: &sim.Result{Total: total, PolicyName: "locality-first"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []joblog.Record{
		{Type: joblog.TypeCreated, Job: 1, Name: "done", Kind: "generator", Mode: "parallel", Started: started, Meta: &meta},
		{Type: joblog.TypeFinished, Job: 1, Status: "done", Snapshots: 1},
		{Type: joblog.TypeCreated, Job: 2, Name: "running", Kind: "trace", Mode: "parallel", Started: started, Meta: &meta},
	} {
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := durableServer(t, dir, 0)
	if rec := srv.recovered; rec.Restored != 1 || rec.Interrupted != 1 {
		t.Fatalf("recovery = %+v, want 1 restored and 1 interrupted", rec)
	}
	var done jobView
	getJSON(t, ts.URL+"/v1/jobs/1", &done)
	if done.Status != "done" || done.Mode != "streaming" || done.Snapshots != 1 || done.Snapshot != snap {
		t.Fatalf("recovered done job = %+v, want done in streaming mode with its stored snapshot", done)
	}
	var en struct {
		Tally sim.Tally `json:"tally"`
	}
	getJSON(t, ts.URL+"/v1/jobs/1/energy", &en)
	if en.Tally != total {
		t.Fatalf("recovered /energy tally = %+v, want the stored %+v", en.Tally, total)
	}
	var running jobView
	getJSON(t, ts.URL+"/v1/jobs/2", &running)
	if running.Status != "failed" || running.Error != errInterrupted || running.Mode != "streaming" {
		t.Fatalf("recovered running job = %+v, want failed in streaming mode with the restart error", running)
	}
}
