package matching

import (
	"math"
	"sync"

	"consumelocal/internal/energy"
)

// LocalityFirst is the paper's managed-swarm matching policy: demand is
// satisfied from the closest available peers, layer by layer. The zero
// value is ready to use and safe for concurrent Match calls (per-call
// scratch state lives in an internal pool).
type LocalityFirst struct{}

var _ Policy = LocalityFirst{}

// Name implements Policy.
func (LocalityFirst) Name() string { return "locality-first" }

// groupPair is one peer in a grouping pass. MatchInto lays a pass out
// in ascending (k1, k2, idx) order, so groups are runs of equal k1 and
// subgroups runs of equal (k1, k2): groups come out in ascending key
// order with members in ascending index order, which fixes the
// floating-point operation sequence and therefore the simulator's
// bit-for-bit results. The orders come from stableOrder and one
// counting sort by PoP rank, not from comparing pairs, and are then
// expanded into the pairs the matching passes read.
type groupPair struct {
	k1, k2 int64
	idx    int32
}

// lfScratch is the reusable per-Match working state. Matching runs once
// per activity interval — the single hottest call in both engines — so
// its temporaries are pooled rather than reallocated per interval.
type lfScratch struct {
	residD, residC []float64
	pairs          []groupPair
	ord            orderScratch
	keys           []int32 // grouping key per peer of the current order
	order          []int32 // peer indices in exchange-pass order
	popOrder       []int32 // peer indices in (PoP, index) order
	rank           []int32 // dense PoP rank per peer
	offsets        []int32 // counting-sort slot per PoP rank
	starts         []int32 // subgroup boundaries of the current cross pass
	demand         []float64
	capacity       []float64
	served         []float64
	used           []float64
}

// floats returns a zeroed scratch slice of length n.
func floats(buf *[]float64, n int) []float64 {
	s := grown(buf, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// grown returns a scratch slice of length n with arbitrary contents,
// for callers that overwrite every element themselves. Every pooled
// slice is grown through its own call: the slices share a length, not
// a capacity history.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

var lfPool = sync.Pool{New: func() any { return new(lfScratch) }}

// Match implements Policy, allocating a fresh result per call; the
// engines recycle one Allocation through MatchInto instead.
func (p LocalityFirst) Match(peers []Peer, demands, caps []float64, budget float64) (Allocation, error) {
	var a Allocation
	if err := p.MatchInto(&a, peers, demands, caps, budget); err != nil {
		return Allocation{}, err
	}
	return a, nil
}

// MatchInto implements Policy. The algorithm runs three passes:
//
//  1. Exchange pass: within every exchange point hosting at least two
//     peers, local demand is matched against local capacity.
//  2. PoP pass: per PoP, remaining demand is matched against remaining
//     capacity of *other* exchange points under the same PoP.
//  3. Core pass: remaining demand is matched across PoPs.
//
// Cross-group passes use a largest-remaining-first greedy that achieves
// the maximum feasible flow under the no-self-serving constraint. Finally
// the paper's (L−1)·q budget is applied, trimming least-local traffic
// first.
//
//consumelocal:hotpath
func (LocalityFirst) MatchInto(alloc *Allocation, peers []Peer, demands, caps []float64, budget float64) error {
	totalDemand, err := validate(peers, demands, caps)
	if err != nil {
		return err
	}
	if math.IsNaN(budget) {
		return errNonFinite
	}
	n := len(peers)
	alloc.reset(n, totalDemand)
	if n < 2 || budget == 0 {
		return nil
	}

	sc := lfPool.Get().(*lfScratch)
	defer lfPool.Put(sc)

	// Residual demand/capacity per peer, consumed pass by pass; the
	// copies overwrite every element, so no zeroing pass is needed.
	residD := grown(&sc.residD, n)
	residC := grown(&sc.residC, n)
	copy(residD, demands)
	copy(residC, caps)

	pairs := grown(&sc.pairs, n)
	keys := grown(&sc.keys, n)
	order := grown(&sc.order, n)

	// Pass 1: within exchange points, grouped in (exchange, index)
	// order.
	for i, p := range peers {
		keys[i] = int32(p.Exchange)
	}
	sc.ord.stableOrder(order, keys)
	for j, i := range order {
		pairs[j] = groupPair{k1: int64(keys[i]), idx: i}
	}
	for s := 0; s < n; {
		e := s + 1
		for e < n && pairs[e].k1 == pairs[s].k1 {
			e++
		}
		if e-s >= 2 {
			flow := matchWithin(pairs[s:e], residD, residC)
			record(alloc, energy.LayerExchange, flow, pairs[s:e], residD, residC, demands, caps)
		}
		s = e
	}

	// Pass 3's (PoP, index) order, built now because walking it also
	// ranks the PoPs densely: rank[i] is the position of peer i's PoP
	// among the distinct PoPs, and offsets[r] counts rank r's peers.
	// keys hold the PoPs from here on.
	popOrder := grown(&sc.popOrder, n)
	rank := grown(&sc.rank, n)
	offsets := sc.offsets[:0]
	for i, p := range peers {
		keys[i] = int32(p.PoP)
	}
	sc.ord.stableOrder(popOrder, keys)
	for j, i := range popOrder {
		if j == 0 || keys[i] != keys[popOrder[j-1]] {
			offsets = append(offsets, 0)
		}
		r := len(offsets) - 1
		rank[i] = int32(r)
		offsets[r]++
	}
	sc.offsets = offsets

	// Pass 2: across exchanges within each PoP, in (PoP, exchange,
	// index) order, so PoPs are runs and their exchange subgroups
	// sub-runs. A counting sort of the pass-1 order by PoP rank is
	// stable, so it yields that order in O(n). offsets become each
	// rank's next free slot, and then each rank's end.
	var next int32
	for r, c := range offsets {
		offsets[r] = next
		next += c
	}
	for _, i := range order {
		p := peers[i]
		slot := &offsets[rank[i]]
		pairs[*slot] = groupPair{k1: int64(p.PoP), k2: int64(p.Exchange), idx: i}
		*slot++
	}
	var s int32
	for _, e := range offsets {
		// A PoP with one peer has no other exchange to match across.
		if e-s >= 2 {
			flows := crossMatch(sc, pairs[s:e], residD, residC)
			record(alloc, energy.LayerPoP, flows, pairs[s:e], residD, residC, demands, caps)
		}
		s = e
	}

	// Pass 3: across PoPs through the core, in (PoP, index) order. It
	// needs at least two PoPs.
	if len(offsets) >= 2 {
		for j, i := range popOrder {
			pop := int64(keys[i])
			pairs[j] = groupPair{k1: pop, k2: pop, idx: i}
		}
		flows := crossMatch(sc, pairs, residD, residC)
		record(alloc, energy.LayerCore, flows, pairs, residD, residC, demands, caps)
	}

	applyBudget(alloc, budget)
	return nil
}

// matchWithin matches demand against capacity inside one group where every
// member can serve every other. With at least two members the feasible
// flow is min(total demand, total capacity): a cyclic assignment routes
// around self-serving. It mutates the residual vectors and returns the
// flow.
func matchWithin(members []groupPair, residDemand, residCap []float64) float64 {
	var sumD, sumU float64
	for _, m := range members {
		sumD += residDemand[m.idx]
		sumU += residCap[m.idx]
	}
	flow := sumD
	if sumU < flow {
		flow = sumU
	}
	if flow <= 0 {
		return 0
	}
	drainProportional(members, residDemand, sumD, flow)
	drainProportional(members, residCap, sumU, flow)
	return flow
}

// crossMatch matches residual demand of each subgroup (a run of equal k2
// within the sorted members) against residual capacity of the *other*
// subgroups, using a largest-remaining-first greedy that achieves the
// maximum total flow under the no-same-group constraint. It mutates the
// residual vectors and returns the total flow.
func crossMatch(sc *lfScratch, members []groupPair, residDemand, residCap []float64) float64 {
	// Subgroup boundaries: starts[g] is the first member of subgroup g.
	starts := sc.starts[:0]
	for i := range members {
		if i == 0 || members[i].k2 != members[i-1].k2 {
			starts = append(starts, int32(i))
		}
	}
	sc.starts = starts
	k := len(starts)
	if k < 2 {
		return 0
	}
	end := func(g int) int {
		if g+1 < k {
			return int(starts[g+1])
		}
		return len(members)
	}

	demand := floats(&sc.demand, k)
	capacity := floats(&sc.capacity, k)
	for g := 0; g < k; g++ {
		for _, m := range members[starts[g]:end(g)] {
			demand[g] += residDemand[m.idx]
			capacity[g] += residCap[m.idx]
		}
	}

	// served[g] / used[g] accumulate how much of group g's demand was
	// served and capacity consumed in this pass.
	served := floats(&sc.served, k)
	used := floats(&sc.used, k)
	var total float64
	const eps = 1e-9
	for {
		// One scan finds the largest demand gd and the two largest
		// capacities c1, c2, each the first index to reach its value;
		// the largest capacity outside gd is then c1, or c2 if c1 is
		// gd. k >= 2, so c2 is always set.
		gd, c1, c2 := 0, 0, -1
		for g := 1; g < k; g++ {
			if demand[g] > demand[gd] {
				gd = g
			}
			if capacity[g] > capacity[c1] {
				c2, c1 = c1, g
			} else if c2 < 0 || capacity[g] > capacity[c2] {
				c2 = g
			}
		}
		if demand[gd] <= eps {
			break
		}
		gu := c1
		if gu == gd {
			gu = c2
		}
		if capacity[gu] <= eps {
			break
		}
		x := demand[gd]
		if capacity[gu] < x {
			x = capacity[gu]
		}
		demand[gd] -= x
		capacity[gu] -= x
		served[gd] += x
		used[gu] += x
		total += x
	}
	if total <= 0 {
		return 0
	}

	// Fold the per-group outcomes back into the per-peer residuals.
	for g := 0; g < k; g++ {
		group := members[starts[g]:end(g)]
		if served[g] > 0 {
			var sumD float64
			for _, m := range group {
				sumD += residDemand[m.idx]
			}
			drainProportional(group, residDemand, sumD, served[g])
		}
		if used[g] > 0 {
			var sumU float64
			for _, m := range group {
				sumU += residCap[m.idx]
			}
			drainProportional(group, residCap, sumU, used[g])
		}
	}
	return total
}

// drainProportional subtracts amount from the members' entries of vec,
// proportionally to their current values (which sum to sum).
func drainProportional(members []groupPair, vec []float64, sum, amount float64) {
	if sum <= 0 {
		return
	}
	scale := amount / sum
	if scale > 1 {
		scale = 1
	}
	for _, m := range members {
		vec[m.idx] -= vec[m.idx] * scale
		if vec[m.idx] < 0 {
			vec[m.idx] = 0
		}
	}
}

// record books flow at a layer and attributes it to the members' upload
// and peer-download tallies, truing each member up to its cumulative
// consumed capacity (caps[i] − residCap[i]) and met demand
// (demands[i] − residDemand[i]). The per-member updates are independent
// max-assignments, so member order does not affect the outcome.
func record(alloc *Allocation, layer energy.Layer, flow float64, members []groupPair,
	residDemand, residCap, demands, caps []float64) {
	if flow <= 0 {
		return
	}
	alloc.LayerBits[layer.Index()] += flow
	alloc.ServerBits -= flow

	for _, m := range members {
		i := m.idx
		if upSoFar := caps[i] - residCap[i]; upSoFar > alloc.UploadedBits[i] {
			alloc.UploadedBits[i] = upSoFar
		}
		if downSoFar := demands[i] - residDemand[i]; downSoFar > alloc.PeerReceivedBits[i] {
			alloc.PeerReceivedBits[i] = downSoFar
		}
	}
}
