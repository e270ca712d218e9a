package compete

import (
	"maps"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/shmem"
	"repro/internal/xrand"
)

// allocBytes returns the bytes the heap handed out while fn ran.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFieldConstructionIsLazy: a field of 2^20 pairs (16 MiB of registers)
// is built from one page slot per 16 pairs, not the pairs themselves, and a
// touch allocates the touched pair's page only.
func TestFieldConstructionIsLazy(t *testing.T) {
	const m = 1 << 20
	pairs := uint64(m * unsafe.Sizeof(Pair{}))
	var f *Field
	built := allocBytes(func() { f = NewField(m) })
	if built > pairs/16 {
		t.Fatalf("NewField(%d) allocates %d bytes, want <= %d (1/16 of its %d bytes of pairs)", m, built, pairs/16, pairs)
	}
	if f.Len() != m || f.Registers() != 2*m {
		t.Fatalf("Len=%d Registers=%d", f.Len(), f.Registers())
	}
	touched := allocBytes(func() { f.Pair(m / 2).R.Poke(1) })
	if pg := uint64(unsafe.Sizeof(page{})); touched > pg {
		t.Fatalf("the first touch allocates %d bytes, want <= one page (%d)", touched, pg)
	}
}

// TestFieldPairAddressesStable: the address of a pair never changes — not
// when other pairs' pages are installed, not across Reset.
func TestFieldPairAddressesStable(t *testing.T) {
	const m = 10 * pageSize
	f := NewField(m)
	addr := make([]*Pair, m)
	for i := m - 1; i >= 0; i -= 3 {
		addr[i] = f.Pair(i)
	}
	for i := 0; i < m; i++ {
		if addr[i] == nil {
			addr[i] = f.Pair(i)
		}
		addr[i].R.Poke(int64(i + 1))
	}
	f.Reset()
	for i := 0; i < m; i++ {
		if f.Pair(i) != addr[i] {
			t.Fatalf("pair %d moved across touches and Reset", i)
		}
		if addr[i].R.Peek() != shmem.Null {
			t.Fatalf("pair %d not Null after Reset", i)
		}
	}
}

// TestFieldMatchesEager drives a paged field and a plain slice of pairs
// through the same random pokes and holds Claimed, the registers and Reset
// of the one to the other.
func TestFieldMatchesEager(t *testing.T) {
	for _, m := range []int{5, pageSize, pageSize + 1, 7*pageSize + 3} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := xrand.New(xrand.Mix(seed, uint64(m)))
			f, ref := NewField(m), make([]Pair, m)
			for round := 0; round < 3; round++ {
				for k := rng.Intn(2 * pageSize); k > 0; k-- {
					i, v := rng.Intn(m), int64(rng.Intn(3)) // Null a third of the time
					if rng.Intn(2) == 0 {
						f.Pair(i).H.Poke(v)
						ref[i].H.Poke(v)
					} else {
						f.Pair(i).R.Poke(v)
						ref[i].R.Poke(v)
					}
				}
				want := map[int]int64{}
				for i := range ref {
					if w := ref[i].LastClaim(); w != shmem.Null {
						want[i] = w
					}
				}
				if got := f.Claimed(); !maps.Equal(got, want) {
					t.Fatalf("m=%d seed=%d round %d: Claimed %v, eager %v", m, seed, round, got, want)
				}
				if round == 2 {
					break
				}
				f.Reset()
				for i := range ref {
					ref[i] = Pair{}
				}
				if c := f.Claimed(); len(c) != 0 {
					t.Fatalf("m=%d seed=%d: Claimed after Reset = %v", m, seed, c)
				}
			}
			for i := range ref {
				if h, r := f.Pair(i).H.Peek(), f.Pair(i).R.Peek(); h != ref[i].H.Peek() || r != ref[i].R.Peek() {
					t.Fatalf("m=%d seed=%d: pair %d holds (%d,%d), eager (%d,%d)", m, seed, i, h, r, ref[i].H.Peek(), ref[i].R.Peek())
				}
			}
		}
	}
}

// TestFieldFirstTouchRace: goroutines that touch the pairs of one page for
// the first time at once must all get one address per pair. Run it under
// -race: the page's installation by CAS is the only synchronization.
func TestFieldFirstTouchRace(t *testing.T) {
	const (
		workers = 8
		m       = 4 * pageSize
	)
	for trial := 0; trial < 100; trial++ {
		f := NewField(m)
		base := (trial % 4) * pageSize
		var got [workers][pageSize]*Pair
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for j := 0; j < pageSize; j++ {
					j := (j + w) % pageSize // start on different pairs
					got[w][j] = f.Pair(base + j)
					got[w][j].H.Poke(int64(w + 1))
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for j := 0; j < pageSize; j++ {
			for w := 1; w < workers; w++ {
				if got[w][j] != got[0][j] {
					t.Fatalf("trial %d: pair %d has two addresses after concurrent first touches", trial, base+j)
				}
			}
			if f.Pair(base+j) != got[0][j] || got[0][j].H.Peek() == shmem.Null {
				t.Fatalf("trial %d: pair %d lost its page or a write", trial, base+j)
			}
		}
	}
}
