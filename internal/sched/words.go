package sched

import "math/bits"

// Bit-word helpers. Both engines publish their pending set as bit words
// (Engine.Pending, Engine.PendingReads): bit pid of word pid/64 is set when
// pid is in the set. Policies and drivers decide straight off those words
// with the helpers below, which allocate nothing and make no engine call.

// NextBit returns the smallest set bit of words greater than after, or -1 if
// there is none. Iterating with after = -1, then the previous return value,
// visits the set in ascending order; a negative after starts at bit 0.
func NextBit(words []uint64, after int) int {
	i := after + 1
	if i < 0 {
		i = 0
	}
	w := uint(i) >> 6
	if w >= uint(len(words)) {
		return -1
	}
	word := words[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		w++
		if w >= uint(len(words)) {
			return -1
		}
		word = words[w]
	}
	return int(w)<<6 + bits.TrailingZeros64(word)
}

// NthBit returns the i-th (0-based, ascending) set bit of words, or -1 when i
// is negative or words has at most i set bits: one popcount per word before
// the target word and one select64 inside it.
func NthBit(words []uint64, i int) int {
	if i < 0 {
		return -1
	}
	for w, word := range words {
		c := bits.OnesCount64(word)
		if i < c {
			return w<<6 + select64(word, i)
		}
		i -= c
	}
	return -1
}

// HasBit reports whether bit pid of words is set. Bits outside the words
// (a negative pid, or one beyond the last word) are never set.
func HasBit(words []uint64, pid int) bool {
	w := uint(pid) >> 6
	return w < uint(len(words)) && words[w]&(1<<(uint(pid)&63)) != 0
}

// selByte[b|k<<8] is the position of the k-th (0-based) set bit of byte b,
// or 8 when b has fewer than k+1 bits. 2KB, built once; the table keeps
// select64 free of data-dependent branches, which mispredict badly under
// random schedules.
var selByte [2048]uint8

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for pos := 0; pos < 8; pos++ {
			if b>>pos&1 == 1 {
				selByte[b|k<<8] = uint8(pos)
				k++
			}
		}
		for ; k < 8; k++ {
			selByte[b|k<<8] = 8
		}
	}
}

// select64 returns the position of the k-th (0-based) set bit of x, for
// k < popcount(x). Branchless broadword select (Vigna): byte-wise popcount
// prefix sums via multiply, a SIMD-within-a-register byte comparison to
// locate the target byte, then a table lookup inside it.
func select64(x uint64, k int) int {
	const (
		ones = 0x0101010101010101
		msbs = 0x8080808080808080
	)
	s := x - ((x >> 1) & 0x5555555555555555)
	s = (s & 0x3333333333333333) + ((s >> 2) & 0x3333333333333333)
	s = ((s + (s >> 4)) & 0x0f0f0f0f0f0f0f0f) * ones
	// Byte i of s now holds popcount(bytes 0..i of x); all values <= 64, so
	// the carry trick below is an exact byte-wise "prefix <= k" test.
	leq := ((uint64(k)*ones | msbs) - s) & msbs
	place := uint(bits.OnesCount64(leq)) << 3
	byteRank := uint64(k) - ((s<<8)>>place)&0xff
	return int(place) + int(selByte[(x>>place)&0xff|byteRank<<8])
}
