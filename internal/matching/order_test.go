package matching

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceOrder is the comparator definition stableOrder must meet:
// the indices 0..n-1 stably sorted by key.
func referenceOrder(keys []int32) []int32 {
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[a] > keys[b]:
			return 1
		}
		return 0
	})
	return want
}

// checkOrder runs stableOrder into a fresh buffer and compares it with
// referenceOrder.
func checkOrder(t *testing.T, label string, o *orderScratch, keys []int32) {
	t.Helper()
	got := make([]int32, len(keys))
	for i := range got {
		got[i] = -1 // every slot must be written
	}
	o.stableOrder(got, keys)
	want := referenceOrder(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: order[%d] = %d, want %d (n=%d)", label, i, got[i], want[i], len(keys))
		}
	}
}

// countingPasses reports how many counting passes stableOrder makes
// over keys, mirroring its digit choice; 0 means insertion sort or a
// constant key.
func countingPasses(keys []int32) int {
	n := len(keys)
	if n <= insertionMax {
		return 0
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	keyBits := 0
	for span := uint64(int64(hi) - int64(lo)); span > 0; span >>= 1 {
		keyBits++
	}
	if keyBits == 0 {
		return 0
	}
	digit := minDigit
	for 1<<(digit+1) <= n && digit < maxDigit {
		digit++
	}
	return (keyBits + digit - 1) / digit
}

// TestStableOrder checks stableOrder against a stable comparator sort
// over the sizes around its insertion cut-over and its digit-width
// steps, and over key spans of 0, 1, 2^k−1, 2^k and 2^32−1 placed at
// several offsets. One scratch serves every case, so its buffers grow
// and shrink between calls. Spans are chosen so both odd and even
// pass counts occur: with an odd count the first pass writes the
// caller's buffer, with an even one the scratch buffer.
func TestStableOrder(t *testing.T) {
	sizes := []int{0, 1, 2, 15, 16, 17, 31, 32, 33, 1000, 2049}
	type span struct {
		name string
		lo   int64
		span uint64
	}
	var spans []span
	for _, lo := range []int64{0, -1000, math.MinInt32} {
		for _, s := range []uint64{0, 1, 255, 256, 1<<9 - 1, 1 << 9, 1<<17 - 1, 1 << 17, 1<<24 - 1, 1 << 24} {
			spans = append(spans, span{fmt.Sprintf("lo=%d,span=%d", lo, s), lo, s})
		}
	}
	spans = append(spans, span{"int32 full range", math.MinInt32, 1<<32 - 1})

	rng := rand.New(rand.NewSource(5))
	var o orderScratch
	passCounts := map[int]bool{}
	for _, n := range sizes {
		for _, sp := range spans {
			if sp.lo+int64(sp.span) > math.MaxInt32 {
				continue
			}
			// Half the keys come from four values, so ties are long,
			// and both ends of the span are always present.
			keys := make([]int32, n)
			for i := range keys {
				var off uint64
				if rng.Intn(2) == 0 {
					off = uint64(rng.Intn(4)) * sp.span / 3
				} else {
					off = uint64(rng.Int63n(int64(sp.span) + 1))
				}
				keys[i] = int32(sp.lo + int64(off))
			}
			if n >= 2 {
				keys[rng.Intn(n)] = int32(sp.lo)
				keys[rng.Intn(n)] = int32(sp.lo + int64(sp.span))
			}
			passCounts[countingPasses(keys)] = true
			checkOrder(t, sp.name, &o, keys)
		}
	}
	for _, p := range []int{1, 2, 3, 4} {
		if !passCounts[p] {
			t.Errorf("no case made %d counting passes", p)
		}
	}
}

// FuzzStableOrder checks stableOrder against a stable comparator sort
// on fuzzer-chosen keys: every four bytes of data make one int32 key,
// up to 4096 keys, and mod, when positive, folds them into [0, mod) so
// that ties and narrow spans are common.
func FuzzStableOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0}, uint16(0))
	f.Add(make([]byte, 4*40), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
		41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
		65, 66, 67, 68, 69, 70, 71, 72}, uint16(0))
	f.Add(make([]byte, 4*300), uint16(9))
	var o orderScratch
	f.Fuzz(func(t *testing.T, data []byte, mod uint16) {
		n := min(len(data)/4, 4096)
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			if mod > 0 {
				keys[i] = int32(uint32(keys[i]) % uint32(mod))
			}
		}
		checkOrder(t, "fuzz", &o, keys)
	})
}
