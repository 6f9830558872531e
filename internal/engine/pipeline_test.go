package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"consumelocal/internal/matching"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// collectSnapshots drains a run, sleeping pause between receives, and
// returns every snapshot with the result.
func collectSnapshots(t *testing.T, tr *trace.Trace, cfg Config, pause time.Duration) ([]Snapshot, *sim.Result) {
	t.Helper()
	run, err := Stream(TraceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for snap := range run.Snapshots() {
		snaps = append(snaps, snap)
		if pause > 0 {
			time.Sleep(pause)
		}
	}
	res, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res
}

// TestPipelineSlowConsumerSnapshotsIdentical: with windows short enough
// that several marks are in flight at once, a consumer that sleeps
// between receives must see exactly the snapshots a prompt one does —
// every field, every window — and the same result. The pipelined
// collector may lag the feed, but never reorder or re-merge a window.
func TestPipelineSlowConsumerSnapshotsIdentical(t *testing.T) {
	tr := testTrace(t)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig(1.0)
			cfg.WindowSec = 900
			cfg.Workers = workers
			cfg.SnapshotBuffer = 1
			prompt, want := collectSnapshots(t, tr, cfg, 0)
			slow, got := collectSnapshots(t, tr, cfg, 200*time.Microsecond)
			if len(prompt) < 100 {
				t.Fatalf("only %d windows: too few marks to keep the pipeline full", len(prompt))
			}
			if len(slow) != len(prompt) {
				t.Fatalf("slow consumer saw %d snapshots, prompt one %d", len(slow), len(prompt))
			}
			for i := range prompt {
				if slow[i] != prompt[i] {
					t.Fatalf("snapshot %d differs:\nslow   %+v\nprompt %+v", i, slow[i], prompt[i])
				}
				if prompt[i].Index != i {
					t.Fatalf("snapshot %d has index %d", i, prompt[i].Index)
				}
			}
			assertResultsMatch(t, got, want, 0)
		})
	}
}

// errInjected is the failure failingPolicy injects.
var errInjected = errors.New("injected matching failure")

// failingPolicy is LocalityFirst until the failAt-th MatchInto call
// across all workers, which fails.
type failingPolicy struct {
	matching.LocalityFirst
	failAt int64
	calls  *atomic.Int64
}

func (p failingPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	if p.calls.Add(1) == p.failAt {
		return errInjected
	}
	return p.LocalityFirst.MatchInto(a, peers, demands, caps, budget)
}

// TestPipelineWorkerErrorSurfaces: a worker failing mid-run must reach
// Result as its own error — not as the context.Canceled the pipeline
// unwinds with — and every pipeline goroutine must exit, whether the
// consumer reads snapshots or only calls Result.
func TestPipelineWorkerErrorSurfaces(t *testing.T) {
	tr := testTrace(t)
	for _, workers := range []int{1, 2, 4} {
		for _, drain := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/drain=%v", workers, drain), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cfg := DefaultConfig(1.0)
				cfg.WindowSec = 900
				cfg.Workers = workers
				cfg.Sim.Policy = failingPolicy{failAt: 2000, calls: new(atomic.Int64)}
				run, err := Stream(TraceSource(tr), cfg)
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					if drain {
						for range run.Snapshots() {
						}
					}
					res, err := run.Result()
					if !errors.Is(err, errInjected) {
						t.Errorf("Result error = %v, want the injected failure", err)
					}
					if res != nil {
						t.Error("failed run produced a result")
					}
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("Result did not return after a worker failed")
				}
				waitForGoroutines(t, baseline)
			})
		}
	}
}

// silentAfterLiveSource plays a script of events, then goes silent:
// NextEvent blocks until the replay is cancelled.
type silentAfterLiveSource struct {
	scriptedLiveSource
}

func (s *silentAfterLiveSource) NextEvent(ctx context.Context) (Event, error) {
	if s.pos < len(s.events) {
		return s.scriptedLiveSource.NextEvent(ctx)
	}
	<-ctx.Done()
	return Event{}, ctx.Err()
}

// TestLiveWatermarkSnapshotWhileProducerSilent: the snapshot a watermark
// closes must reach the consumer while the producer stays silent. The
// feed is then parked in NextEvent, so the collector alone has to merge
// the window and emit it.
func TestLiveWatermarkSnapshotWhileProducerSilent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	src := &silentAfterLiveSource{scriptedLiveSource{
		meta: liveTestMeta(),
		events: []Event{
			{Session: liveTestSession(1, 100, 600)},
			{Session: liveTestSession(2, 200, 600)},
			{Mark: true, WatermarkSec: 3600},
		},
	}}
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 3600
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run, err := StreamContext(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case snap, ok := <-run.Snapshots():
		if !ok {
			t.Fatal("snapshot channel closed early")
		}
		if snap.Index != 0 || snap.ToSec != 3600 || snap.SessionsSeen != 2 || snap.Delta.TotalBits == 0 {
			t.Fatalf("watermark snapshot = %+v, want window 0 with both sessions settled", snap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no snapshot while the producer was silent")
	}
	cancel()
	if _, err := run.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result after cancel = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, baseline)
}
