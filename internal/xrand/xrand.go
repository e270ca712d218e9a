// Package xrand provides a small, deterministic pseudo-random generator used
// across the repository for expander-edge generation, schedule shuffling, and
// test-input fuzzing.
//
// The generator is SplitMix64 (Steele, Lea, Flood: "Fast splittable
// pseudorandom number generators", OOPSLA 2014). It is chosen over math/rand
// because the reproduction needs bit-for-bit stable streams across Go
// releases: expander graphs are defined by a seed, and two builds of the
// library must agree on every edge.
package xrand

import "slices"

// SplitMix64 advances the state by the golden-gamma and returns the next
// 64-bit output. It is the stateless core used directly when a value must be
// a pure function of its inputs (e.g. expander edges).
func SplitMix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix hashes two words into one. It is used to derive per-node seeds from a
// graph seed so that neighbor lists are pure functions of (seed, node, slot).
func Mix(a, b uint64) uint64 {
	_, out := SplitMix64(a ^ (b * 0xff51afd7ed558ccd))
	return out
}

// Rand is a deterministic stream of pseudo-random numbers. The zero value is
// a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64-bit value in the stream.
func (r *Rand) Uint64() uint64 {
	var out uint64
	r.state, out = SplitMix64(r.state)
	return out
}

// Intn returns a value in [0, n). It panics if n <= 0, mirroring math/rand.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [1, n]. It panics if
// k > n. The result is in no particular order.
func (r *Rand) Sample(k, n int) []int64 {
	if k > n {
		panic("xrand: Sample with k > n")
	}
	// Floyd's algorithm: no O(n) allocation, and the membership test scans
	// out, so the result is the one allocation. The scan is O(k²); it beats
	// a map up to k ≈ 128 and every caller draws a few dozen values.
	out := make([]int64, 0, k)
	for j := n - k + 1; j <= n; j++ {
		t := int64(r.Intn(j) + 1)
		if slices.Contains(out, t) {
			t = int64(j)
		}
		out = append(out, t)
	}
	return out
}
