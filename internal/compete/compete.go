// Package compete implements the register-competition procedure of the
// paper's Figure 1 ("Compete-For-Register"). A competition object is a pair
// of shared registers (R, HR), where HR is a placeholder holding a
// reservation for R. The procedure satisfies the two properties of Lemma 1:
//
//   - Wins are guaranteed with no contention: a process competing alone for a
//     fresh pair eventually wins.
//   - Wins are exclusive: at most one contender ever wins a given pair.
//
// Note that a pair touched by a losing contender may be spoiled for later
// solo contenders (its HR is no longer null); the renaming algorithms account
// for this by competing only over expander neighborhoods of fresh pairs.
package compete

import (
	"fmt"
	"sync/atomic"

	"repro/internal/shmem"
)

// Pair is one competable register with its reservation placeholder. Both
// registers start at Null. The zero value is ready for use.
type Pair struct {
	H shmem.Reg // the placeholder HR of Figure 1
	R shmem.Reg // the register R being competed for
}

// Registers returns the number of shared registers a Pair occupies.
func (pr *Pair) Registers() int { return 2 }

// LastClaim returns the identity most recently written to R, or shmem.Null if
// R was never written. Harness use only (it does not charge steps). Note a
// subtlety of Figure 1 that our adversarial tests surface: a slow loser can
// overwrite R after the winner's final HR check, so LastClaim is NOT
// necessarily the winner — winning is decided by Compete returning true, and
// the renaming algorithms name processes by the pair's index, never by R's
// content.
func (pr *Pair) LastClaim() int64 { return pr.R.Peek() }

// Compete runs the Figure 1 procedure for process p using identity id
// (any non-Null value unique to the contender, typically the process's
// original or intermediate name). It returns true exactly when p wins the
// pair. At most 5 local steps are taken.
func Compete(p *shmem.Proc, pr *Pair, id int64) bool {
	if id == shmem.Null {
		panic("compete: identity must be non-null")
	}
	if contention := p.Read(&pr.H); contention != shmem.Null {
		return false
	}
	p.Write(&pr.H, id)
	if contention := p.Read(&pr.R); contention != shmem.Null {
		return false
	}
	p.Write(&pr.R, id)
	return p.Read(&pr.H) == id
}

// pageSize is the number of pairs in one page of a Field (256 bytes of
// registers).
const pageSize = 16

// page is the allocation granule of a Field.
type page [pageSize]Pair

// Field is an array of competition pairs, used as the register space of one
// renaming structure (two shared registers per name). A contender touches
// only the pairs of its expander neighbors, so a field backs its pairs
// lazily, in pages: a page is allocated the first time one of its pairs is
// asked for and installed by CAS, so concurrent first touches (as under
// sched.RunFree) agree on one page. Allocation is not a shared-memory step
// (the registers conceptually pre-exist, as in shmem.RegFile), and a pair's
// address never changes once handed out, which the vectorized engine's undo
// log relies on.
type Field struct {
	m     int
	pages []atomic.Pointer[page] // nil until one of the page's pairs is touched
}

// NewField returns a field of m fresh pairs.
func NewField(m int) *Field {
	return &Field{m: m, pages: make([]atomic.Pointer[page], (m+pageSize-1)/pageSize)}
}

// Len returns the number of pairs.
func (f *Field) Len() int { return f.m }

// Pair returns the i-th pair, 0-based, installing its page on first touch.
func (f *Field) Pair(i int) *Pair {
	if uint(i) >= uint(f.m) {
		panic(fmt.Sprintf("compete: pair %d outside [0..%d)", i, f.m))
	}
	slot := &f.pages[i/pageSize]
	pg := slot.Load()
	if pg == nil {
		slot.CompareAndSwap(nil, new(page))
		pg = slot.Load() // the page this swap or a racing one installed
	}
	return &pg[i%pageSize]
}

// Registers returns the number of shared registers the field occupies.
func (f *Field) Registers() int { return 2 * f.m }

// each calls fn on every pair of an installed page, the only pairs that may
// have been written. Pairs of an uninstalled page are Null, as are those past
// the end of the last page, which Pair never hands out.
func (f *Field) each(fn func(i int, pr *Pair)) {
	for k := range f.pages {
		if pg := f.pages[k].Load(); pg != nil {
			for j := range pg {
				fn(k*pageSize+j, &pg[j])
			}
		}
	}
}

// Reset rewinds every pair to the fresh Null state via direct pokes. It is a
// harness-level recycling operation, not a register access: no steps are
// charged and no process may be mid-competition on the field when it runs.
// The long-lived service layer calls it only at generation quiescence (no
// attached session can still read or write these registers), which is what
// makes the poke equivalent to allocating a fresh field. Installed pages
// stay installed, so pair addresses survive it.
func (f *Field) Reset() {
	f.each(func(_ int, pr *Pair) {
		pr.H.Poke(shmem.Null)
		pr.R.Poke(shmem.Null)
	})
}

// Claimed returns the set of (index, last-claim-id) pairs whose R register is
// non-null. Harness use only; see Pair.LastClaim for why the id may be a
// loser's.
func (f *Field) Claimed() map[int]int64 {
	out := make(map[int]int64)
	f.each(func(i int, pr *Pair) {
		if w := pr.LastClaim(); w != shmem.Null {
			out[i] = w
		}
	})
	return out
}
