package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"consumelocal/internal/matching"
	"consumelocal/internal/trace"
)

// cancellingPolicy wraps a real matching policy and cancels the run's
// context on its first Match call, counting every call so tests can
// verify the run stopped early instead of sweeping the whole trace.
type cancellingPolicy struct {
	inner  matching.Policy
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (p *cancellingPolicy) Name() string { return p.inner.Name() }

func (p *cancellingPolicy) Match(peers []matching.Peer, demands, caps []float64, budget float64) (matching.Allocation, error) {
	p.calls.Add(1)
	p.cancel()
	return p.inner.Match(peers, demands, caps, budget)
}

func (p *cancellingPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	p.calls.Add(1)
	p.cancel()
	return p.inner.MatchInto(a, peers, demands, caps, budget)
}

// countingPolicy counts matching calls without interfering.
type countingPolicy struct {
	inner matching.Policy
	calls atomic.Int64
}

func (p *countingPolicy) Name() string { return p.inner.Name() }

func (p *countingPolicy) Match(peers []matching.Peer, demands, caps []float64, budget float64) (matching.Allocation, error) {
	p.calls.Add(1)
	return p.inner.Match(peers, demands, caps, budget)
}

func (p *countingPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	p.calls.Add(1)
	return p.inner.MatchInto(a, peers, demands, caps, budget)
}

func cancelTestTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 3
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunContextPreCancelled(t *testing.T) {
	tr := cancelTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, tr, DefaultConfig(1.0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run produced a result")
	}
}

// TestRunContextCancelsBetweenSweeps: cancellation raised mid-run (here
// from inside the very first interval's Match) must abort the run after
// the current swarm instead of sweeping the remaining thousands — the
// batch engine's cancellation-depth guarantee.
func TestRunContextCancelsBetweenSweeps(t *testing.T) {
	tr := cancelTestTrace(t)

	// Reference: how many Match calls does the full trace cost?
	full := DefaultConfig(1.0)
	counter := &countingPolicy{inner: full.Policy}
	full.Policy = counter
	if _, err := Run(tr, full); err != nil {
		t.Fatal(err)
	}
	totalCalls := counter.calls.Load()
	if totalCalls < 100 {
		t.Fatalf("test trace settled only %d intervals; too small to detect early abort", totalCalls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig(1.0)
	cp := &cancellingPolicy{inner: cfg.Policy, cancel: cancel}
	cfg.Policy = cp

	res, err := RunContext(ctx, tr, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run produced a result")
	}
	if got := cp.calls.Load(); got >= totalCalls/2 {
		t.Fatalf("cancelled run still settled %d of %d intervals; cancellation not observed between sweeps", got, totalCalls)
	}
}
