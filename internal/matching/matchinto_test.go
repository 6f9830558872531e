package matching

import (
	"fmt"
	"math/rand"
	"testing"

	"consumelocal/internal/topology"
)

// matchWorkload builds one interval's matching inputs: n peers placed
// uniformly over the given number of exchange points, each under PoP
// popOf(exchange), with varied demand and capacity — the shape both
// engines feed per activity interval.
func matchWorkload(n, exchanges int, popOf func(exchange int) int, seed int64) (peers []Peer, demands, caps []float64) {
	rng := rand.New(rand.NewSource(seed))
	peers = make([]Peer, n)
	demands = make([]float64, n)
	caps = make([]float64, n)
	for i := range peers {
		exchange := rng.Intn(exchanges)
		peers[i] = Peer{User: uint32(i), Exchange: exchange, PoP: popOf(exchange)}
		demands[i] = float64(1+rng.Intn(1000)) * 1e6
		caps[i] = float64(rng.Intn(800)) * 1e6
	}
	return peers, demands, caps
}

// smallPoP places 12 exchanges in 3 PoPs of 4 consecutive exchanges,
// the small topology the policy tests use.
func smallPoP(exchange int) int { return exchange / 4 }

// matchShape is one benchmarked interval shape.
type matchShape struct {
	name      string
	n         int
	exchanges int
	popOf     func(exchange int) int
}

// matchShapes are the interval sizes the engines actually match: the
// replay-vod benchmark's mean (16 peers) and p99 (135 peers) and the
// ingest-live benchmark's mean (238 peers) and p99 (866 peers) on the
// default 345-exchange, 9-PoP round-robin tree, plus the original 128
// peers over 12 exchanges.
func matchShapes() []matchShape {
	tree := topology.DefaultLondon()
	shapes := []matchShape{{"peers=128,exchanges=12", 128, 12, smallPoP}}
	for _, n := range []int{16, 135, 238, 866} {
		shapes = append(shapes, matchShape{fmt.Sprintf("peers=%d", n), n, tree.Exchanges(), tree.PoPOf})
	}
	return shapes
}

// allocationsEqual compares two allocations bit for bit.
func allocationsEqual(t *testing.T, label string, got *Allocation, want Allocation) {
	t.Helper()
	if got.ServerBits != want.ServerBits {
		t.Fatalf("%s: ServerBits = %v, want %v", label, got.ServerBits, want.ServerBits)
	}
	if got.LayerBits != want.LayerBits {
		t.Fatalf("%s: LayerBits = %v, want %v", label, got.LayerBits, want.LayerBits)
	}
	if len(got.UploadedBits) != len(want.UploadedBits) {
		t.Fatalf("%s: %d uploaded entries, want %d", label, len(got.UploadedBits), len(want.UploadedBits))
	}
	for i := range want.UploadedBits {
		if got.UploadedBits[i] != want.UploadedBits[i] {
			t.Fatalf("%s: UploadedBits[%d] = %v, want %v", label, i, got.UploadedBits[i], want.UploadedBits[i])
		}
		if got.PeerReceivedBits[i] != want.PeerReceivedBits[i] {
			t.Fatalf("%s: PeerReceivedBits[%d] = %v, want %v", label, i, got.PeerReceivedBits[i], want.PeerReceivedBits[i])
		}
	}
}

// TestMatchIntoReusesAllocation pins the MatchInto contract for both
// policies: recycling one Allocation across intervals of varying size —
// growing, shrinking, budget-capped — produces bit-for-bit the result a
// fresh Match call does every time.
func TestMatchIntoReusesAllocation(t *testing.T) {
	for _, policy := range []Policy{LocalityFirst{}, Random{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			var reused Allocation
			sizes := []int{64, 7, 128, 2, 1, 31}
			for round, n := range sizes {
				peers, demands, caps := matchWorkload(n, 12, smallPoP, int64(round+1))
				budget := -1.0
				if round%2 == 1 {
					var sumCaps float64
					for _, c := range caps {
						sumCaps += c
					}
					budget = sumCaps / 4 // force the trim path
				}
				want, err := policy.Match(peers, demands, caps, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := policy.MatchInto(&reused, peers, demands, caps, budget); err != nil {
					t.Fatal(err)
				}
				allocationsEqual(t, policy.Name(), &reused, want)
			}
		})
	}
}

// TestMatchIntoAllocs pins the recycled matching path at zero
// allocations at steady state, for both policies and every benchmarked
// shape: once the Allocation's per-peer vectors and the pooled scratch
// have grown, an interval match must not touch the heap.
func TestMatchIntoAllocs(t *testing.T) {
	for _, policy := range []Policy{LocalityFirst{}, Random{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			for _, shape := range matchShapes() {
				t.Run(shape.name, func(t *testing.T) {
					peers, demands, caps := matchWorkload(shape.n, shape.exchanges, shape.popOf, 1)
					var a Allocation
					if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
						t.Fatal(err)
					}
					if raceEnabled {
						t.Skip("the race detector drops sync.Pool items, so pooled scratch reallocates")
					}
					allocs := testing.AllocsPerRun(10, func() {
						if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Fatalf("MatchInto allocated %.1f times per run, want 0", allocs)
					}
				})
			}
		})
	}
}

// BenchmarkMatchInto measures one interval's matching through the
// recycled-Allocation path, the hottest call in every engine, at each
// benchmarked shape.
func BenchmarkMatchInto(b *testing.B) {
	for _, policy := range []Policy{LocalityFirst{}, Random{}} {
		b.Run(policy.Name(), func(b *testing.B) {
			for _, shape := range matchShapes() {
				b.Run(shape.name, func(b *testing.B) {
					peers, demands, caps := matchWorkload(shape.n, shape.exchanges, shape.popOf, 1)
					var a Allocation
					if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(len(peers)), "peers/op")
				})
			}
		})
	}
}
