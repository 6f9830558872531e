package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"consumelocal/internal/trace"
)

// fakeDaemon speaks just enough of consumelocald's ingest protocol for
// the open-loop producer: one job, batches acknowledged in full (the
// stallAt-th batch after a stall), a snapshot stream that closes once
// the job is finished.
type fakeDaemon struct {
	stallAt int
	stall   time.Duration

	mu       sync.Mutex
	batches  int
	finished chan struct{}
}

func (f *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == "POST" && r.URL.Path == "/v1/jobs":
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":1}`)
	case r.Method == "POST" && strings.HasSuffix(r.URL.Path, "/sessions"):
		ss, err := trace.ReadSessionsCSV(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.batches++
		n := f.batches
		f.mu.Unlock()
		if n == f.stallAt {
			time.Sleep(f.stall)
		}
		fmt.Fprintf(w, `{"pushed":%d}`, len(ss))
	case r.Method == "POST" && strings.HasSuffix(r.URL.Path, "/finish"):
		close(f.finished)
		fmt.Fprint(w, `{}`)
	case r.Method == "GET" && strings.HasSuffix(r.URL.Path, "/snapshots"):
		<-f.finished
		fmt.Fprint(w, `{"status":"done","error":""}`+"\n")
	case r.Method == "GET" && strings.HasSuffix(r.URL.Path, "/energy"):
		fmt.Fprint(w, `{"status":"done","tally":{"total_bits":1}}`)
	default:
		http.NotFound(w, r)
	}
}

// TestOpenLoopCountsStallInLaterLatencies drives the ingest-live
// producer against a daemon that stalls one batch for 200 ms. Timed
// from when each batch was due, every batch that fell due during the
// stall carries the rest of the stall; timed from when it was sent, as
// a closed-loop client would, only the stalled batch does.
func TestOpenLoopCountsStallInLaterLatencies(t *testing.T) {
	const (
		n       = 30
		every   = 10 * time.Millisecond
		stallAt = 5
		stall   = 200 * time.Millisecond
	)
	fd := &fakeDaemon{stallAt: stallAt, stall: stall, finished: make(chan struct{})}
	srv := httptest.NewServer(fd)
	defer srv.Close()

	var sessions []trace.Session
	for i := 0; i < n; i++ {
		sessions = append(sessions, trace.Session{UserID: uint32(i), StartSec: int64(i), DurationSec: 60, Bitrate: trace.BitrateSD})
	}
	sh := shape{Name: "ingest-live", Kind: "live", WindowSec: 3600, Batch: 1, Conns: 2}
	r := &ingestRun{
		opt:     options{shape: sh, seconds: time.Second},
		trace:   sessions,
		batches: makeBatches(sessions, 1),
		conns:   []*conn{newConn(srv.URL), newConn(srv.URL)},
	}
	defer r.conns[0].close()
	defer r.conns[1].close()
	sched := schedule{starts: []time.Duration{0}, batches: []int{n}, every: every}
	p := r.newPhase(false)
	p.t0 = time.Now()
	p.live(sched, closers(r.batches, sh.WindowSec))

	if len(p.ackMs) != n || len(p.jobs) != 1 || p.jobs[0].err != nil || p.jobs[0].accepted != n {
		t.Fatalf("acks %d, jobs %+v", len(p.ackMs), p.jobs)
	}
	stallMs := ms(stall)
	slack := 5.0 // ms of scheduling noise allowed
	stalled := stallAt - 1
	caught := 0
	for i := stalled; i < n; i++ {
		// Batch i fell due (i-stalled)*every after the stalled one; the
		// stall still had this long to run when it did.
		left := stallMs - ms(time.Duration(i-stalled)*every)
		if left <= 0 {
			break
		}
		caught++
		if p.ackMs[i] < left-slack {
			t.Errorf("batch %d: due-time latency %.1fms, want at least the %.1fms of stall left when it fell due", i, p.ackMs[i], left)
		}
		if i > stalled && p.rttMs[i] > stallMs/2 {
			t.Errorf("batch %d: send-time latency %.1fms also carries the stall", i, p.rttMs[i])
		}
	}
	if caught < 15 {
		t.Fatalf("only %d batches fell due during the stall", caught)
	}
	if late := p.lateMs[stalled+1]; late < stallMs-ms(every)-slack {
		t.Errorf("generator lateness after the stall %.1fms, want about %.1fms", late, stallMs-ms(every))
	}
}
