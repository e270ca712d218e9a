// Package afrename fills the AF(k,N) role of the paper (Section 3, "Let
// AF(k,N) be the algorithm of Attiya and Fouren..."): a wait-free renaming
// stage that maps k contenders with distinct identities into new names
// bounded by 2k-1, the optimal range for read-write registers.
//
// Substitution: the genuine Attiya-Fouren
// algorithm reaches 2k-1 names in O(N) steps through adaptive lattice
// agreement with reflector networks. We implement the classic snapshot-based
// rank renaming of Attiya, Bar-Noy, Dolev, Peleg and Reischuk (JACM 1990),
// as presented for shared memory by Attiya and Welch: each contender
// repeatedly publishes a proposal in an atomic snapshot; on conflict it
// re-proposes the r-th free integer, where r is the rank of its identity
// among contenders in its view. The interface contract the paper uses —
// wait-free, names in [2k-1], any identity range — is identical; only the
// theoretical step bound is weaker. The paper invokes this stage on an
// already-compressed range of O(k) names, but in this repository the range
// it gets is k(k+1)/2 (core.Efficient's PolyLog stage is the identity at
// practical k), and each attempt collects the whole snapshot. So the
// difference is not immaterial: Efficient-Rename and Adaptive-Rename built
// on this stage measure about k² steps per process, not Theorem 2's and
// 4's O(k). ROADMAP item 9 has the measured table; nothing in the
// repository checks an O(k) shape.
//
// Safety: a process decides a name only after a scan in which its proposal
// is unique. With an atomic snapshot two deciders of the same name are
// impossible: the later updater's scan would have seen the earlier decider's
// standing proposal.
package afrename

import (
	"fmt"
	"slices"

	"repro/internal/shmem"
	"repro/internal/snapshot"
)

// entry is one contender's published state.
type entry struct {
	id   int64 // the contender's distinct identity (an original name)
	prop int64 // currently proposed new name, >= 1
}

// Renamer is a one-shot renaming object with a fixed number of contender
// slots (snapshot segments). Each contender must call Rename with a distinct
// slot in [0, Slots) and a distinct non-null identity.
type Renamer struct {
	snap *snapshot.Object[entry]

	// MaxName, when non-zero, bounds the name space: a proposal that would
	// exceed it aborts the attempt and Rename returns ok=false. The adaptive
	// constructions use this to keep each doubling level inside its
	// allotted block of 2^(i+1)-1 names.
	MaxName int64

	// MaxAttempts, when non-zero, bounds the number of propose/scan rounds
	// before giving up. Zero means run to decision, which the classic
	// termination argument guarantees (wait-free).
	MaxAttempts int
}

// New returns a renamer with the given number of slots.
func New(slots int) *Renamer {
	return &Renamer{snap: snapshot.New[entry](slots)}
}

// Registers returns the number of shared registers the renamer occupies.
func (r *Renamer) Registers() int { return r.snap.Registers() }

// Rename acquires a new name for the contender occupying slot with identity
// id. It returns the name and true, or 0 and false when a configured bound
// (MaxName or MaxAttempts) was hit. With k participating contenders the
// returned names never exceed 2k-1.
func (r *Renamer) Rename(p *shmem.Proc, slot int, id int64) (int64, bool) {
	if id == shmem.Null {
		panic("afrename: identity must be non-null")
	}
	if slot < 0 || slot >= r.snap.Len() {
		panic(fmt.Sprintf("afrename: slot %d outside [0..%d)", slot, r.snap.Len()))
	}
	prop := int64(1)
	var taken []int64
	for attempt := 1; ; attempt++ {
		if r.MaxName > 0 && prop > r.MaxName {
			return 0, false
		}
		r.snap.Update(p, slot, entry{id: id, prop: prop})
		view := views(r.snap.Scan(p))
		if unique(view, slot, prop) {
			return prop, true
		}
		prop, taken = freeNameByRank(view, slot, id, taken)
		if r.MaxAttempts > 0 && attempt >= r.MaxAttempts {
			return 0, false
		}
	}
}

// decisionView is what a decision reads of a scan: one entry per slot.
// Rename's scans are slices; RenameFrame reads its scan frame's collect in
// place.
type decisionView interface {
	Len() int
	At(i int) snapshot.View[entry]
}

// views is a scan returned as a slice.
type views []snapshot.View[entry]

func (v views) Len() int                      { return len(v) }
func (v views) At(i int) snapshot.View[entry] { return v[i] }

// unique reports whether no contender other than slot currently proposes
// prop.
func unique[V decisionView](view V, slot int, prop int64) bool {
	for i := 0; i < view.Len(); i++ {
		if v := view.At(i); i != slot && v.Set && v.Data.prop == prop {
			return false
		}
	}
	return true
}

// freeNameByRank returns the rank-th smallest positive integer not proposed
// by any other contender in view, where rank is the 1-based rank of id among
// the identities present. taken is scratch reused across calls (callers in
// the attempt loop retain it between rounds); the grown buffer is returned
// alongside the name.
func freeNameByRank[V decisionView](view V, slot int, id int64, taken []int64) (int64, []int64) {
	rank := 1
	taken = taken[:0]
	for i := 0; i < view.Len(); i++ {
		v := view.At(i)
		if !v.Set {
			continue
		}
		if i != slot {
			if v.Data.id < id {
				rank++
			}
			taken = append(taken, v.Data.prop)
		}
	}
	slices.Sort(taken)
	// Walk the positive integers, skipping proposals of others, until the
	// rank-th free one.
	free := int64(0)
	next := int64(1)
	for _, tk := range taken {
		for next < tk {
			free++
			if free == int64(rank) {
				return next, taken
			}
			next++
		}
		if next == tk {
			next++
		}
	}
	return next + int64(rank) - free - 1, taken
}
