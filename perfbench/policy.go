package main

import (
	"math"
	"sync"
	"time"

	"consumelocal/internal/matching"
)

// timedPolicy wraps a matching policy with the counters the matching
// layer is measured by: calls, time inside MatchInto, peers per call and
// the share of demanded bits served by peers. It is passed as
// sim.Config.Policy, the seam every engine matches through; concurrent
// workers share it, so the counters sit behind one mutex.
type timedPolicy struct {
	inner matching.Policy

	mu         sync.Mutex
	calls      int64
	matchNs    int64
	peers      int64
	peerBits   float64
	demandBits float64
	// perCall[n] counts calls that matched n peers.
	perCall []int64
}

func newTimedPolicy() *timedPolicy { return &timedPolicy{inner: matching.LocalityFirst{}} }

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Match(peers []matching.Peer, demands, caps []float64, budget float64) (matching.Allocation, error) {
	var a matching.Allocation
	err := p.MatchInto(&a, peers, demands, caps, budget)
	return a, err
}

func (p *timedPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	t0 := time.Now()
	err := p.inner.MatchInto(a, peers, demands, caps, budget)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	var demand float64
	for _, x := range demands {
		demand += x
	}
	served := a.PeerBits()
	n := len(peers)
	p.mu.Lock()
	p.calls++
	p.matchNs += d.Nanoseconds()
	p.peers += int64(n)
	p.peerBits += served
	p.demandBits += demand
	for len(p.perCall) <= n {
		p.perCall = append(p.perCall, 0)
	}
	p.perCall[n]++
	p.mu.Unlock()
	return nil
}

// matchStats is a snapshot of a timedPolicy's counters.
type matchStats struct {
	Calls        int64   `json:"calls"`
	MatchS       float64 `json:"match_s"`
	PeersMean    float64 `json:"peers_mean"`
	PeersP99     float64 `json:"peers_p99"`
	PeerBitShare float64 `json:"peer_bit_share"`
}

// stats summarises the counters.
func (p *timedPolicy) stats() matchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := matchStats{Calls: p.calls, MatchS: float64(p.matchNs) / 1e9}
	if p.calls > 0 {
		st.PeersMean = float64(p.peers) / float64(p.calls)
		// Exact nearest-rank p99 over the per-call counts.
		rank := int64(math.Ceil(0.99*float64(p.calls))) - 1
		var cum int64
		for n, c := range p.perCall {
			cum += c
			if cum > rank {
				st.PeersP99 = float64(n)
				break
			}
		}
	}
	if p.demandBits > 0 {
		st.PeerBitShare = p.peerBits / p.demandBits
	}
	return st
}
