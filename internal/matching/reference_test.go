package matching

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"consumelocal/internal/energy"
)

// referenceLocalityFirst is LocalityFirst as it was before grouping moved
// to packed uint64 keys and a counting sort: each grouping pass sorts
// (k1, k2, index) triples with a three-field comparator, and each
// greedy step of the cross passes scans the groups twice
// (refCrossMatch). It is kept, test-only, as the oracle the production
// implementation must match bit for bit.
type referenceLocalityFirst struct{}

func refCmpGroupPair(a, b groupPair) int {
	if a.k1 != b.k1 {
		if a.k1 < b.k1 {
			return -1
		}
		return 1
	}
	if a.k2 != b.k2 {
		if a.k2 < b.k2 {
			return -1
		}
		return 1
	}
	if a.idx != b.idx {
		if a.idx < b.idx {
			return -1
		}
		return 1
	}
	return 0
}

// MatchInto is the comparator-sort MatchInto, unchanged apart from taking
// a fresh scratch per call instead of a pooled one.
func (referenceLocalityFirst) MatchInto(alloc *Allocation, peers []Peer, demands, caps []float64, budget float64) error {
	totalDemand, err := validate(peers, demands, caps)
	if err != nil {
		return err
	}
	n := len(peers)
	alloc.reset(n, totalDemand)
	if n < 2 || budget == 0 {
		return nil
	}

	sc := new(lfScratch)

	residD := grown(&sc.residD, n)
	residC := grown(&sc.residC, n)
	copy(residD, demands)
	copy(residC, caps)

	pairs := make([]groupPair, n)

	// Pass 1: within exchange points.
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.Exchange), idx: int32(i)}
	}
	slices.SortFunc(pairs, refCmpGroupPair)
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

	// Pass 2: across exchanges within each PoP.
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.PoP), k2: int64(p.Exchange), idx: int32(i)}
	}
	slices.SortFunc(pairs, refCmpGroupPair)
	for s := 0; s < n; {
		e := s + 1
		for e < n && pairs[e].k1 == pairs[s].k1 {
			e++
		}
		flows := refCrossMatch(sc, pairs[s:e], residD, residC)
		record(alloc, energy.LayerPoP, flows, pairs[s:e], residD, residC, demands, caps)
		s = e
	}

	// Pass 3: across PoPs through the core.
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.PoP), k2: int64(p.PoP), idx: int32(i)}
	}
	slices.SortFunc(pairs, refCmpGroupPair)
	flows := refCrossMatch(sc, pairs, residD, residC)
	record(alloc, energy.LayerCore, flows, pairs, residD, residC, demands, caps)

	applyBudget(alloc, budget)
	return nil
}

// refCrossMatch is crossMatch as it was before the one-scan greedy: each
// step takes the largest demand with refArgmax and the largest capacity
// outside it with refArgmaxExcept.
func refCrossMatch(sc *lfScratch, members []groupPair, residDemand, residCap []float64) float64 {
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

	served := floats(&sc.served, k)
	used := floats(&sc.used, k)
	var total float64
	const eps = 1e-9
	for {
		gd := refArgmax(demand)
		if gd < 0 || demand[gd] <= eps {
			break
		}
		gu := refArgmaxExcept(capacity, gd)
		if gu < 0 || capacity[gu] <= eps {
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

// refArgmax returns the index of the largest entry, or -1 for empty
// input.
func refArgmax(xs []float64) int {
	best := -1
	for i, x := range xs {
		if best < 0 || x > xs[best] {
			best = i
		}
	}
	return best
}

// refArgmaxExcept returns the index of the largest entry other than
// skip, or -1 when no other entry exists.
func refArgmaxExcept(xs []float64, skip int) int {
	best := -1
	for i, x := range xs {
		if i == skip {
			continue
		}
		if best < 0 || x > xs[best] {
			best = i
		}
	}
	return best
}

// diffCase draws one matching interval for the differential test. The
// shapes cover what the grouping order must get right: the default
// round-robin topology, heavy exchange ties, negative IDs, PoPs that
// are not a function of the exchange, int32-extreme IDs and the
// per-ISP namespacing of the AnyISP ablation; budgets are unbounded,
// zero, binding or slack.
func diffCase(rng *rand.Rand, n int) (peers []Peer, demands, caps []float64, budget float64) {
	extremes := []int{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	peers = make([]Peer, n)
	demands = make([]float64, n)
	caps = make([]float64, n)
	shape := rng.Intn(6)
	span := 1 + rng.Intn(8)
	for i := range peers {
		var ex, pop int
		switch shape {
		case 0: // default topology, round-robin PoPs
			ex = rng.Intn(345)
			pop = ex % 9
		case 1: // few exchanges: long runs of ties
			ex = rng.Intn(span)
			pop = ex % (1 + rng.Intn(2))
		case 2: // negative IDs, PoP independent of exchange
			ex = rng.Intn(2*span+1) - span - 1000
			pop = rng.Intn(7) - 3
		case 3: // int32 extremes
			ex = extremes[rng.Intn(len(extremes))]
			pop = extremes[rng.Intn(len(extremes))]
		case 4: // AnyISP namespacing: ISP-strided exchanges and PoPs
			isp := rng.Intn(5)
			ex = rng.Intn(345)
			pop = ex%9 + isp*9
			ex += isp * 345
		default: // every peer in one exchange
			ex, pop = -7, 3
		}
		peers[i] = Peer{User: uint32(i), Exchange: ex, PoP: pop}
		switch rng.Intn(4) {
		case 0:
			demands[i] = 0
		case 1:
			demands[i] = float64(1+rng.Intn(1000)) * 1e6
		default:
			demands[i] = rng.Float64() * 3e8
		}
		switch rng.Intn(4) {
		case 0:
			caps[i] = 0
		case 1:
			caps[i] = float64(rng.Intn(800)) * 1e6
		default:
			caps[i] = rng.Float64() * 2e8
		}
	}
	var sumCaps float64
	for _, c := range caps {
		sumCaps += c
	}
	switch rng.Intn(4) {
	case 0:
		budget = -1
	case 1:
		budget = 0
	case 2:
		budget = sumCaps * rng.Float64() / 2 // usually binds
	default:
		budget = 2*sumCaps + 1 // never binds
	}
	return peers, demands, caps, budget
}

// checkAgainstReference runs LocalityFirst through a recycled
// Allocation and the comparator-sort reference through a fresh one, and
// requires the same error outcome and, on success, bit-identical
// results.
func checkAgainstReference(t *testing.T, label string, reused *Allocation, peers []Peer, demands, caps []float64, budget float64) {
	t.Helper()
	var want Allocation
	wantErr := referenceLocalityFirst{}.MatchInto(&want, peers, demands, caps, budget)
	gotErr := LocalityFirst{}.MatchInto(reused, peers, demands, caps, budget)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if gotErr == nil {
		allocationsEqual(t, label, reused, want)
	}
}

// TestMatchIntoMatchesReference is the differential test of the
// production grouping (stableOrder and the counting sort by PoP rank)
// against the comparator-sort implementation it replaced: 100k seeded
// random intervals must match bit for bit. Sizes are drawn
// independently per case, so one recycled Allocation and the pooled
// scratch keep growing and shrinking between calls. A further 2000
// cases draw 300–1100 peers, the size of the ingest-live benchmark's
// largest swarms (p99 866 peers), where stableOrder's digits are
// wider.
func TestMatchIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var reused Allocation
	for c := 0; c < 100_000; c++ {
		n := 1 + rng.Intn(300)
		if c%3 == 0 {
			n = 1 + rng.Intn(12) // small swarms are the common case
		}
		peers, demands, caps, budget := diffCase(rng, n)
		checkAgainstReference(t, fmt.Sprintf("case %d (n=%d)", c, n), &reused, peers, demands, caps, budget)
	}
	rng = rand.New(rand.NewSource(14))
	for c := 0; c < 2000; c++ {
		n := 300 + rng.Intn(801)
		peers, demands, caps, budget := diffCase(rng, n)
		checkAgainstReference(t, fmt.Sprintf("large case %d (n=%d)", c, n), &reused, peers, demands, caps, budget)
	}
}

// FuzzMatchIntoReference checks LocalityFirst against the reference on
// fuzzer-chosen intervals. Every four bytes of data make one peer
// (exchange, PoP, demand, capacity); scale stretches the IDs, up to and
// past the int32 range validate enforces; budgetFrac < 0 means
// unbounded, otherwise the budget is that fraction of total capacity.
// poison, when its low three bits are 1–4, overwrites one peer's demand
// or capacity (peer poison>>3 mod n) with NaN or +Inf, which both must
// refuse.
func FuzzMatchIntoReference(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 0, 15, 9, 0, 10, 0, 9, 0, 0, 5}, int32(1), -1.0, uint8(0))
	f.Add([]byte{1, 1, 200, 50, 2, 1, 30, 90, 255, 128, 7, 7, 3, 1, 0, 255, 1, 2, 100, 100}, int32(-3), 0.25, uint8(0))
	f.Add([]byte{127, 127, 1, 2, 128, 128, 3, 4, 127, 128, 5, 6}, int32(math.MaxInt32/127), 2.0, uint8(0))
	f.Add([]byte{5, 5, 5, 5}, int32(1), 0.0, uint8(0))
	f.Add([]byte{0, 0, 10, 10, 1, 1, 10, 10, 2, 2, 10, 10}, int32(1), -1.0, uint8(1))
	f.Add([]byte{0, 0, 10, 10, 1, 1, 10, 10, 2, 2, 10, 10}, int32(1), -1.0, uint8(8<<3|4))
	f.Fuzz(func(t *testing.T, data []byte, scale int32, budgetFrac float64, poison uint8) {
		n := len(data) / 4
		if n > 2048 {
			n = 2048
		}
		peers := make([]Peer, n)
		demands := make([]float64, n)
		caps := make([]float64, n)
		var sumCaps float64
		for i := range peers {
			b := data[4*i : 4*i+4]
			peers[i] = Peer{
				User:     uint32(i),
				Exchange: int(int8(b[0])) * int(scale),
				PoP:      int(int8(b[1])) * int(scale),
			}
			demands[i] = float64(b[2]) * 1e6 / 7
			caps[i] = float64(b[3]) * 1e6 / 3
			sumCaps += caps[i]
		}
		budget := -1.0
		if budgetFrac >= 0 && !math.IsInf(budgetFrac, 0) {
			budget = budgetFrac * sumCaps
		}
		kind := poison & 7
		poisoned := n > 0 && kind >= 1 && kind <= 4
		if poisoned {
			i := int(poison>>3) % n
			bad := math.NaN()
			if kind%2 == 0 {
				bad = math.Inf(1)
			}
			if kind <= 2 {
				demands[i] = bad
			} else {
				caps[i] = bad
			}
		}
		var reused Allocation
		if poisoned {
			if err := (LocalityFirst{}).MatchInto(&reused, peers, demands, caps, budget); err == nil {
				t.Fatalf("accepted non-finite input: demands %v, caps %v", demands, caps)
			}
		}
		checkAgainstReference(t, "fuzz", &reused, peers, demands, caps, budget)
	})
}
