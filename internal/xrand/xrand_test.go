package xrand

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs of SplitMix64 from seed 0 (published test vectors).
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	state := uint64(0)
	for i, w := range want {
		var out uint64
		state, out = SplitMix64(state)
		if out != w {
			t.Fatalf("output %d = %#x, want %#x", i, out, w)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	for _, n := range []int{0, 1, 2, 5, 33} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleProperties(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).Sample(k, n)
		if len(s) != k {
			return false
		}
		seen := make(map[int64]bool, k)
		for _, v := range s {
			if v < 1 || v > int64(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sampleMap is Sample's map form, as it was written before it scanned the
// result instead: the oracle of TestSampleMatchesMapForm.
func sampleMap(r *Rand, k, n int) []int64 {
	seen := make(map[int64]struct{}, k)
	out := make([]int64, 0, k)
	for j := n - k + 1; j <= n; j++ {
		t := int64(r.Intn(j) + 1)
		if _, dup := seen[t]; dup {
			t = int64(j)
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// TestSampleMatchesMapForm: both membership tests make the same draws, so
// Sample returns the map form's values in the same order, and leaves the
// stream at the same point, at k from 0 to n.
func TestSampleMatchesMapForm(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 63, 64, 65, 100, 1 << 10, 1 << 28} {
		for _, k := range []int{0, 1, 2, 3, 8, 16, 63, 64, 65, 100, n} {
			if k > n || (k > 1000 && k == n) {
				continue
			}
			for seed := uint64(0); seed < 20; seed++ {
				r, o := New(seed), New(seed)
				got, want := r.Sample(k, n), sampleMap(o, k, n)
				if !slices.Equal(got, want) {
					t.Fatalf("Sample(%d, %d) seed %d = %v, map form %v", k, n, seed, got, want)
				}
				if r.Uint64() != o.Uint64() {
					t.Fatalf("Sample(%d, %d) seed %d left the stream elsewhere", k, n, seed)
				}
			}
		}
	}
}

func TestSamplePanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Sample(5, 3)")
		}
	}()
	New(1).Sample(5, 3)
}

func TestMixDiffers(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix should not be symmetric for these inputs")
	}
	if Mix(0, 0) == Mix(0, 1) {
		t.Fatal("Mix collision on trivially different inputs")
	}
}
