package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"consumelocal/internal/matching"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// bookIntervalPerMember is BookInterval as it was before the single-day
// fast path: every member's tally goes through bookDays. It is the
// oracle TestBookIntervalMatchesPerMemberSplit holds the fast path to.
func bookIntervalPerMember(b *Booker, iv swarm.Interval, alloc *matching.Allocation, demands []float64, sessions SessionSource) Tally {
	var ivTally Tally
	ivTally.ServerBits = alloc.ServerBits
	ivTally.LayerBits = alloc.LayerBits
	ivTally.TotalBits = alloc.ServerBits
	for _, bits := range alloc.LayerBits {
		ivTally.TotalBits += bits
	}

	peerTotal := ivTally.PeerBits()
	for slot, idx := range iv.Active {
		s := sessions.SessionAt(idx)
		demand := demands[slot]
		received := alloc.PeerReceivedBits[slot]
		server := demand - received
		if server < 0 {
			server = 0
		}

		var perUser Tally
		perUser.TotalBits = demand
		perUser.ServerBits = server
		if peerTotal > 0 {
			frac := received / peerTotal
			for l := range alloc.LayerBits {
				perUser.LayerBits[l] = alloc.LayerBits[l] * frac
			}
		}
		b.bookDays(iv, int(s.ISP), perUser)

		if b.Users != nil {
			u := sessions.LedgerAt(idx, b.Users)
			u.DownloadedBits += demand
			u.FromPeersBits += received
			u.UploadedBits += alloc.UploadedBits[slot]
		}
	}
	return ivTally
}

// bookingCase is one interval's booking inputs over n members.
type bookingCase struct {
	sessions []trace.Session
	active   []int
	demands  []float64
	alloc    matching.Allocation
}

// newBookingCase draws n members over isps ISPs and users users (so
// ledgers repeat), with irregular amounts so that any change in the
// floating-point operations shows in the bits. noPeers zeroes the peer
// traffic, the peerTotal == 0 branch.
func newBookingCase(rng *rand.Rand, n, isps, users int, noPeers bool) bookingCase {
	c := bookingCase{
		sessions: make([]trace.Session, n),
		active:   make([]int, n),
		demands:  make([]float64, n),
		alloc: matching.Allocation{
			UploadedBits:     make([]float64, n),
			PeerReceivedBits: make([]float64, n),
			ServerBits:       rng.Float64() * 1e9,
		},
	}
	if !noPeers {
		for l := range c.alloc.LayerBits {
			c.alloc.LayerBits[l] = rng.Float64() * 3e8
		}
	}
	for i := range c.sessions {
		c.sessions[i] = trace.Session{UserID: uint32(rng.Intn(users)), ISP: uint8(rng.Intn(isps))}
		c.active[i] = i
		c.demands[i] = rng.Float64() * 1e8
		c.alloc.UploadedBits[i] = rng.Float64() * 5e7
		// Sometimes more than the demand, so server clamps at zero.
		c.alloc.PeerReceivedBits[i] = rng.Float64() * 1.2e8
	}
	return c
}

// newGrid returns a days × isps tally grid prefilled with irregular
// values, so booking adds to non-zero tallies.
func newGrid(rng *rand.Rand, days, isps int) [][]Tally {
	grid := make([][]Tally, days)
	for d := range grid {
		grid[d] = make([]Tally, isps)
		for i := range grid[d] {
			t := &grid[d][i]
			t.TotalBits = rng.Float64() * 1e10
			t.ServerBits = rng.Float64() * 1e10
			for l := range t.LayerBits {
				t.LayerBits[l] = rng.Float64() * 1e9
			}
		}
	}
	return grid
}

func tallyBitsEqual(a, b Tally) bool {
	if math.Float64bits(a.TotalBits) != math.Float64bits(b.TotalBits) ||
		math.Float64bits(a.ServerBits) != math.Float64bits(b.ServerBits) {
		return false
	}
	for l := range a.LayerBits {
		if math.Float64bits(a.LayerBits[l]) != math.Float64bits(b.LayerBits[l]) {
			return false
		}
	}
	return true
}

// TestBookIntervalMatchesPerMemberSplit holds BookInterval to the
// per-member bookDays path bit for bit, on the day grid, the user
// ledgers and the returned interval tally, for intervals inside a day,
// on and across day boundaries, in the grid's last day, past the grid
// and before time zero. Each interval is booked twice in a row onto the
// same grid, so accumulation order is covered too.
func TestBookIntervalMatchesPerMemberSplit(t *testing.T) {
	const day = daySec
	const days, isps = 3, 4
	intervals := []struct {
		name     string
		from, to int64
	}{
		{"inside first day", 100, 5000},
		{"inside middle day", day + 7, day + 3600},
		{"ends at day boundary", 80000, day},
		{"starts at day boundary", day, day + 600},
		{"whole day", day, 2 * day},
		{"spans one boundary", 80000, day + 5000},
		{"spans two boundaries", 80000, 2*day + 100},
		{"inside last day", 2*day + 5, 3*day - 1},
		{"ends at grid end", 2*day + 5, 3 * day},
		{"crosses grid end", 3*day - 100, 3*day + 100},
		{"past grid", 3*day + 10, 3*day + 500},
		{"far past grid", 10 * day, 10*day + 1},
		{"negative from, ends in day zero", -100, 50},
		{"negative from, ends before zero", -500, -10},
		{"negative from, spans a boundary", -100, day + 10},
		{"empty", 500, 500},
	}
	rng := rand.New(rand.NewSource(3))
	for _, iv := range intervals {
		for _, n := range []int{1, 16, 238} {
			for _, noPeers := range []bool{false, true} {
				name := fmt.Sprintf("%s/n=%d/noPeers=%v", iv.name, n, noPeers)
				c := newBookingCase(rng, n, isps, 1+n/3, noPeers)
				grid := newGrid(rng, days, isps)
				got := Booker{Days: cloneGrid(grid), Users: map[uint32]*UserStats{}}
				want := Booker{Days: cloneGrid(grid), Users: map[uint32]*UserStats{}}
				src := &SliceSource{Sessions: c.sessions}
				sw := swarm.Interval{From: iv.from, To: iv.to, Active: c.active}
				for round := 0; round < 2; round++ {
					gotTally := got.BookInterval(sw, &c.alloc, c.demands, src)
					wantTally := bookIntervalPerMember(&want, sw, &c.alloc, c.demands, src)
					if !tallyBitsEqual(gotTally, wantTally) {
						t.Fatalf("%s: interval tally %+v, want %+v", name, gotTally, wantTally)
					}
				}
				for d := range want.Days {
					for i := range want.Days[d] {
						if !tallyBitsEqual(got.Days[d][i], want.Days[d][i]) {
							t.Fatalf("%s: Days[%d][%d] = %+v, want %+v", name, d, i, got.Days[d][i], want.Days[d][i])
						}
					}
				}
				if len(got.Users) != len(want.Users) {
					t.Fatalf("%s: %d user ledgers, want %d", name, len(got.Users), len(want.Users))
				}
				for id, w := range want.Users {
					g := got.Users[id]
					if g == nil || *g != *w {
						t.Fatalf("%s: user %d ledger %+v, want %+v", name, id, g, *w)
					}
				}
			}
		}
	}
}

func cloneGrid(grid [][]Tally) [][]Tally {
	out := make([][]Tally, len(grid))
	for d := range grid {
		out[d] = append([]Tally(nil), grid[d]...)
	}
	return out
}

// BenchmarkBookInterval measures booking one single-day interval, the
// settle step after matching, at the replay-vod benchmark's mean swarm
// (16 peers) and the ingest-live benchmark's mean (238 peers), with
// user ledgers on.
func BenchmarkBookInterval(b *testing.B) {
	for _, n := range []int{16, 238} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			c := newBookingCase(rng, n, 5, n, false)
			bk := Booker{Days: newGrid(rng, 2, 5), Users: map[uint32]*UserStats{}}
			src := &SliceSource{Sessions: c.sessions}
			iv := swarm.Interval{From: 3600, To: 3900, Active: c.active}
			var sink Tally
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Add(bk.BookInterval(iv, &c.alloc, c.demands, src))
			}
			if sink.TotalBits <= 0 {
				b.Fatal("booked nothing")
			}
			b.ReportMetric(float64(n), "members/op")
		})
	}
}
