package sched

import (
	"math/bits"
	"testing"

	"repro/internal/xrand"
)

// TestWordHelpersAtBoundaries pins NextBit, NthBit and HasBit at the first
// and last bit of each word (0, 63, 64, 127) and one past the second word
// (128), over three words with exactly those bits set, and on empty words.
func TestWordHelpersAtBoundaries(t *testing.T) {
	set := []int{0, 63, 64, 127, 128}
	words := make([]uint64, 3)
	for _, pid := range set {
		words[pid>>6] |= 1 << (uint(pid) & 63)
	}
	for _, tc := range []struct{ after, want int }{
		{-100, 0}, {-1, 0}, {0, 63}, {62, 63}, {63, 64}, {64, 127},
		{126, 127}, {127, 128}, {128, -1}, {191, -1}, {500, -1},
	} {
		if got := NextBit(words, tc.after); got != tc.want {
			t.Errorf("NextBit(after %d) = %d, want %d", tc.after, got, tc.want)
		}
	}
	for i, pid := range set {
		if got := NthBit(words, i); got != pid {
			t.Errorf("NthBit(%d) = %d, want %d", i, got, pid)
		}
	}
	for _, i := range []int{-1, len(set), 100} {
		if got := NthBit(words, i); got != -1 {
			t.Errorf("NthBit(%d) = %d, want -1", i, got)
		}
	}
	for pid := -2; pid < 200; pid++ {
		want := false
		for _, s := range set {
			want = want || s == pid
		}
		if got := HasBit(words, pid); got != want {
			t.Errorf("HasBit(%d) = %v, want %v", pid, got, want)
		}
	}

	for _, empty := range [][]uint64{nil, {}, {0, 0, 0}} {
		for _, pid := range []int{-1, 0, 63, 64, 127, 128} {
			if got := NextBit(empty, pid); got != -1 {
				t.Errorf("NextBit(%v, %d) = %d, want -1", empty, pid, got)
			}
			if HasBit(empty, pid) {
				t.Errorf("HasBit(%v, %d) on empty words", empty, pid)
			}
		}
		if got := NthBit(empty, 0); got != -1 {
			t.Errorf("NthBit(%v, 0) = %d, want -1", empty, got)
		}
	}
}

// TestSelect64MatchesNaive compares the broadword select against a bit-by-bit
// scan for every rank k of words drawn from a seeded stream, dense and sparse.
func TestSelect64MatchesNaive(t *testing.T) {
	naive := func(x uint64, k int) int {
		for pos := 0; pos < 64; pos++ {
			if x>>pos&1 == 1 {
				if k == 0 {
					return pos
				}
				k--
			}
		}
		return -1
	}
	rng := xrand.New(1)
	for i := 0; i < 4000; i++ {
		x := rng.Uint64()
		switch i % 4 {
		case 1:
			x &= rng.Uint64() & rng.Uint64() // sparse
		case 2:
			x |= rng.Uint64() | rng.Uint64() // dense
		case 3:
			x = 1<<63 | 1<<(x&63) // one or two bits, the top one set
		}
		for k := 0; k < bits.OnesCount64(x); k++ {
			if got, want := select64(x, k), naive(x, k); got != want {
				t.Fatalf("select64(%#x, %d) = %d, want %d", x, k, got, want)
			}
		}
	}
	if got := select64(^uint64(0), 63); got != 63 {
		t.Fatalf("select64(all ones, 63) = %d, want 63", got)
	}
}
