package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"consumelocal/internal/obs"
)

// TestQuotaBurstConcurrentCreates fires a burst of simultaneous job
// submissions at a small quota — the loadtest harness's opening move —
// and requires the daemon to stay exact under the race: every request
// answered, at most max-jobs admitted, every refusal a clean 429, and
// the admission+rejection metrics adding back up to the burst. Run
// under -race (ci.sh races this package), this also pins the
// claim-slot/pending accounting against concurrent submissions.
func TestQuotaBurstConcurrentCreates(t *testing.T) {
	const maxJobs, burst = 4, 32
	sources := make([]*gatedSource, maxJobs)
	for i := range sources {
		sources[i] = newGatedSource(4, 600)
	}
	ts := gatedServer(t, maxJobs, sources...)

	var accepted, rejected, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJob(t, ts.URL+"/v1/jobs")
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d burst submissions answered with neither 202 nor 429", other.Load())
	}
	if got := accepted.Load(); got != maxJobs {
		t.Fatalf("burst admitted %d jobs, want exactly the quota %d", got, maxJobs)
	}
	if got := rejected.Load(); got != burst-maxJobs {
		t.Fatalf("burst rejected %d submissions, want %d", got, burst-maxJobs)
	}

	// The server's own accounting agrees with the clients'.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape under load does not lint: %v", err)
	}
	if got, _ := exp.Value(`consumelocald_jobs_rejected_total`); got != burst-maxJobs {
		t.Fatalf("jobs_rejected_total = %g, want %d", got, burst-maxJobs)
	}
	if got, _ := exp.Value(`consumelocald_jobs_running`); got != maxJobs {
		t.Fatalf("jobs_running = %g, want %d", got, maxJobs)
	}

	// Let the admitted replays finish so the server tears down cleanly.
	for _, src := range sources {
		src.release(len(src.sessions))
	}
}

// TestIngestRacingProducers points several concurrent producers at one
// ingest stream, all pushing interleaved start times. The ordering
// contract guarantees most batches conflict (409 with an out-of-order
// diagnosis) while the stream itself stays usable: the accepted
// sessions form a non-decreasing sequence the replay completes over.
// This is the server half of the loadtest's racing-producer workload.
// On a durable daemon the journal must also hold the accepted sessions
// in the order they landed: a restart from it as a crash leaves it
// resumes the stream with exactly the client-accepted count, and
// finishes to the live job's result.
func TestIngestRacingProducers(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { testIngestRacingProducers(t, durable) })
	}
}

func testIngestRacingProducers(t *testing.T, durable bool) {
	// Batches are long enough that concurrent pushes interleave session
	// by session, which is what used to split journal order from push
	// order.
	const producers, batches, rows = 8, 6, 50
	dir := t.TempDir()
	var ts *httptest.Server
	if durable {
		_, ts = durableServer(t, dir, 0)
	} else {
		ts = httptest.NewServer(newServer(0).routes())
		defer ts.Close()
	}

	_, v := postJob(t, ingestURL(ts.URL, ""))
	url := fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID)

	var accepted, conflicted, other atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// Producers deliberately overlap: producer p pushes
				// starts p*100+b*50±…, so later producers' early batches
				// regress behind earlier producers' later ones.
				start := int64(p*100 + b*50)
				resp, out := postSessions(t, url, "text/csv", sessionRows(start, rows))
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(rows)
				case http.StatusConflict:
					// Partial batches report their landed prefix.
					if n, ok := out["pushed"].(float64); ok {
						accepted.Add(int64(n))
					}
					if msg, ok := out["error"].(string); ok && !strings.Contains(msg, "out of order") {
						t.Errorf("409 without an ordering diagnosis: %q", msg)
					}
					conflicted.Add(1)
				default:
					other.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d racing pushes answered with neither 200 nor 409", other.Load())
	}
	if conflicted.Load() == 0 {
		t.Fatal("no ordering conflicts under racing producers; the interleave should force 409s")
	}
	if accepted.Load() == 0 {
		t.Fatal("no sessions accepted at all; at least the front-running batches must land")
	}

	// The stream survived the contention: it seals and drains normally,
	// with the final snapshot accounting for exactly the accepted set.
	var crashDir string
	if durable {
		crashDir = crashCopy(t, dir)
	}
	want := finishEnergy(t, ts.URL, v.ID)
	final := pollJobStatus(t, ts.URL, v.ID, "done")
	if final.Snapshot.SessionsSeen != accepted.Load() {
		t.Fatalf("replay saw %d sessions, clients had %d accepted", final.Snapshot.SessionsSeen, accepted.Load())
	}
	if durable {
		checkResumed(t, crashDir, v.ID, accepted.Load(), want)
	}
}
