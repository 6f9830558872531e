package main

import (
	"fmt"
	"math"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// oracleTol is the relative tolerance on cross-swarm aggregates (per-day
// tallies, per-user ledgers), the one the engine crosschecks apply:
// per-swarm statistics and the grand total must match exactly.
const oracleTol = 1e-12

// runOracle computes the reference result for sessions: sim.Run, the
// batch simulator every engine is crosschecked against, under the
// paper's configuration that both the library and the daemon default to.
func runOracle(meta trace.Meta, sessions []trace.Session) (*sim.Result, error) {
	return sim.Run(traceOf(meta, sessions), sim.DefaultConfig(1.0))
}

// traceOf assembles an in-memory trace from metadata and sessions.
func traceOf(meta trace.Meta, sessions []trace.Session) *trace.Trace {
	return &trace.Trace{
		Name: meta.Name, Epoch: meta.Epoch, HorizonSec: meta.HorizonSec,
		NumUsers: meta.NumUsers, NumContent: meta.NumContent, NumISPs: meta.NumISPs,
		Sessions: sessions,
	}
}

// compareResults applies the engine crosscheck comparison: policy name,
// per-swarm keys, session counts, capacities and tallies, and the total
// bit for bit; per-day and per-user figures within oracleTol.
func compareResults(got, want *sim.Result) error {
	if got.PolicyName != want.PolicyName {
		return fmt.Errorf("policy %q, oracle %q", got.PolicyName, want.PolicyName)
	}
	if len(got.Swarms) != len(want.Swarms) {
		return fmt.Errorf("%d swarms, oracle %d", len(got.Swarms), len(want.Swarms))
	}
	for i := range got.Swarms {
		g, w := got.Swarms[i], want.Swarms[i]
		switch {
		case g.Key != w.Key:
			return fmt.Errorf("swarm %d key %+v, oracle %+v", i, g.Key, w.Key)
		case g.Sessions != w.Sessions:
			return fmt.Errorf("swarm %+v: %d sessions, oracle %d", g.Key, g.Sessions, w.Sessions)
		case g.Capacity != w.Capacity:
			return fmt.Errorf("swarm %+v: capacity %g, oracle %g", g.Key, g.Capacity, w.Capacity)
		case g.Tally != w.Tally:
			return fmt.Errorf("swarm %+v: tally %+v, oracle %+v", g.Key, g.Tally, w.Tally)
		}
	}
	if got.Total != want.Total {
		return fmt.Errorf("total %+v, oracle %+v", got.Total, want.Total)
	}
	if len(got.Days) != len(want.Days) {
		return fmt.Errorf("%d days, oracle %d", len(got.Days), len(want.Days))
	}
	for d := range got.Days {
		if len(got.Days[d]) != len(want.Days[d]) {
			return fmt.Errorf("day %d: %d ISPs, oracle %d", d, len(got.Days[d]), len(want.Days[d]))
		}
		for isp := range got.Days[d] {
			if !tallyClose(got.Days[d][isp], want.Days[d][isp]) {
				return fmt.Errorf("day %d ISP %d: %+v, oracle %+v", d, isp, got.Days[d][isp], want.Days[d][isp])
			}
		}
	}
	if (got.Users == nil) != (want.Users == nil) {
		return fmt.Errorf("user tracking %v, oracle %v", got.Users != nil, want.Users != nil)
	}
	if len(got.Users) != len(want.Users) {
		return fmt.Errorf("%d users, oracle %d", len(got.Users), len(want.Users))
	}
	for id, w := range want.Users {
		g := got.Users[id]
		if g == nil {
			return fmt.Errorf("user %d missing", id)
		}
		if relDiff(g.DownloadedBits, w.DownloadedBits) > oracleTol ||
			relDiff(g.FromPeersBits, w.FromPeersBits) > oracleTol ||
			relDiff(g.UploadedBits, w.UploadedBits) > oracleTol {
			return fmt.Errorf("user %d ledger %+v, oracle %+v", id, *g, *w)
		}
	}
	return nil
}

func tallyClose(a, b sim.Tally) bool {
	if relDiff(a.TotalBits, b.TotalBits) > oracleTol || relDiff(a.ServerBits, b.ServerBits) > oracleTol {
		return false
	}
	for l := range a.LayerBits {
		if relDiff(a.LayerBits[l], b.LayerBits[l]) > oracleTol {
			return false
		}
	}
	return true
}

// relDiff returns |a-b| / max(|a|, |b|, 1).
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

// oracleCache memoises oracle totals by accepted-prefix length: every
// ingest job pushes a prefix of the same session list, so jobs cut at
// the same point share one reference run.
type oracleCache struct {
	meta     trace.Meta
	sessions []trace.Session
	totals   map[int]sim.Tally
}

func newOracleCache(meta trace.Meta, sessions []trace.Session) *oracleCache {
	return &oracleCache{meta: meta, sessions: sessions, totals: make(map[int]sim.Tally)}
}

// total returns the oracle's grand total over the first n sessions.
func (c *oracleCache) total(n int) (sim.Tally, error) {
	if t, ok := c.totals[n]; ok {
		return t, nil
	}
	res, err := runOracle(c.meta, c.sessions[:n])
	if err != nil {
		return sim.Tally{}, err
	}
	c.totals[n] = res.Total
	return res.Total, nil
}
