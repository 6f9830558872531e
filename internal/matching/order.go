package matching

import "math/bits"

// insertionMax is the largest input stableOrder orders by insertion
// sort. Below it, a counting pass's per-bucket setup costs more than the
// few comparisons it saves.
const insertionMax = 16

// Digit-width limits of stableOrder's counting passes. minDigit keeps
// keys spanning the whole int32 range to four passes; maxDigit bounds
// the count buffer at 64Ki entries however large the input. Balancing
// the bits over the passes then narrows the digit to the key span: the
// default tree's PoP keys take one pass of 4 bits.
const (
	minDigit = 8
	maxDigit = 16
)

// orderScratch is stableOrder's reusable working state, kept in the
// policies' pooled scratch.
type orderScratch struct {
	tmp   []int32 // ping-pong partner of the caller's buffer
	count []int32 // one pass's bucket counts, then its next free slots
}

// stableOrder writes the indices 0..len(keys)-1 into dst, ordered by
// ascending key with ties in ascending index order: a stable sort of
// the indices by key alone. The grouping passes lay peers out in
// (key, index) order, and peers arrive in index order, so this is that
// order without a comparison on the index.
//
// Up to insertionMax keys are ordered by insertion sort. Larger inputs
// take an LSD counting (radix) sort of the offsets key − min, whose
// digits are about log2(len(keys)) bits wide, clamped to
// [minDigit, maxDigit]: the number of passes grows with the key span,
// not with the input, and is at most four. Each pass scatters in
// input order and so is stable, which makes the whole sort stable. The
// passes alternate between dst and o.tmp so that the last one writes
// dst. dst must have len(keys) elements.
//
//consumelocal:hotpath
func (o *orderScratch) stableOrder(dst, keys []int32) {
	n := len(keys)
	if n <= insertionMax {
		for i, k := range keys {
			j := i
			for j > 0 && keys[dst[j-1]] > k {
				dst[j] = dst[j-1]
				j--
			}
			dst[j] = int32(i)
		}
		return
	}

	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	// Any two int32 keys differ by less than 2^32, so the unsigned
	// offset from lo orders them exactly.
	base := uint32(lo)
	keyBits := bits.Len32(uint32(hi) - base)
	if keyBits == 0 {
		for i := range dst {
			dst[i] = int32(i)
		}
		return
	}
	digit := min(max(bits.Len(uint(n))-1, minDigit), maxDigit)
	passes := (keyBits + digit - 1) / digit
	digit = (keyBits + passes - 1) / passes // spread the bits evenly
	mask := uint32(1)<<digit - 1
	count := grown(&o.count, 1<<digit)
	tmp := grown(&o.tmp, n)

	var src []int32 // the previous pass's order; nil means 0..n-1
	for p := 0; p < passes; p++ {
		out := dst
		if (passes-1-p)%2 == 1 {
			out = tmp
		}
		shift := uint(p * digit)
		clear(count)
		for _, k := range keys {
			count[(uint32(k)-base)>>shift&mask]++
		}
		var next int32
		for d, c := range count {
			count[d] = next
			next += c
		}
		if src == nil {
			for i, k := range keys {
				d := (uint32(k) - base) >> shift & mask
				out[count[d]] = int32(i)
				count[d]++
			}
		} else {
			for _, i := range src {
				d := (uint32(keys[i]) - base) >> shift & mask
				out[count[d]] = i
				count[d]++
			}
		}
		src = out
	}
}
