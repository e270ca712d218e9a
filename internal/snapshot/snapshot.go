// Package snapshot implements a wait-free atomic single-writer snapshot
// object over read-write registers, the classic construction of Afek,
// Attiya, Dolev, Gafni, Merritt and Shavit (JACM 1993) that the paper uses
// as the object W in Section 5 and that our AF-role renamer is built on.
//
// The object has n segments. Segment i is written only by process index i
// (Update) and read by everyone (Scan). Scan returns a view — a copy of all
// segments — that is linearizable: every returned view corresponds to the
// memory state at some instant within the Scan's interval.
//
// Construction: each segment register holds (data, seq, view) where view is
// the embedded scan the writer performed just before updating. A scanner
// repeatedly double-collects; if two successive collects are identical it
// returns that direct view. Otherwise it tracks movers: a process observed
// to move twice since the scan began has completed an entire Update inside
// the scan's interval, so its embedded view is valid and is borrowed.
// A scan therefore finishes after at most n+1 collects: each repeat is
// charged to a distinct second-time mover.
//
// Cost: one collect is n reads, so Scan is O(n²) reads worst case and Update
// is Scan plus one write. All accesses are charged to the calling process as
// local steps, so higher layers' step counts include the true register cost
// of snapshots, as the paper's accounting requires.
package snapshot

import (
	"fmt"

	"repro/internal/shmem"
)

// segment is the immutable content of one snapshot register.
type segment[T any] struct {
	data T
	set  bool  // false only in the initial (never-updated) state
	seq  int64 // writer's update counter
	view []View[T]
	// viewSet mirrors set for the embedded view entries.
}

// View is one entry of a returned scan: the segment's value and whether the
// segment was ever written.
type View[T any] struct {
	Data T
	Set  bool
}

// Object is an n-segment atomic snapshot. Create with New.
type Object[T any] struct {
	segs []shmem.Ref[segment[T]]
}

// New returns a snapshot object with n segments, all initially unset.
func New[T any](n int) *Object[T] {
	if n <= 0 {
		panic("snapshot: need at least one segment")
	}
	return &Object[T]{segs: make([]shmem.Ref[segment[T]], n)}
}

// Len returns the number of segments.
func (o *Object[T]) Len() int { return len(o.segs) }

// Registers returns the number of shared registers the object occupies.
func (o *Object[T]) Registers() int { return len(o.segs) }

// collect reads every segment once (n local steps).
func (o *Object[T]) collect(p *shmem.Proc) []*segment[T] {
	out := make([]*segment[T], len(o.segs))
	for i := range o.segs {
		out[i] = shmem.ReadRef(p, &o.segs[i])
	}
	return out
}

func sameCollect[T any](a, b []*segment[T]) bool {
	for i := range a {
		as, bs := int64(-1), int64(-1)
		if a[i] != nil {
			as = a[i].seq
		}
		if b[i] != nil {
			bs = b[i].seq
		}
		if as != bs {
			return false
		}
	}
	return true
}

func viewOf[T any](c []*segment[T]) []View[T] {
	return viewInto(make([]View[T], len(c)), c)
}

// viewInto writes the view of collect c into dst (len(dst) == len(c)),
// overwriting every entry, and returns it.
func viewInto[T any](dst []View[T], c []*segment[T]) []View[T] {
	for i, s := range c {
		if s != nil {
			dst[i] = View[T]{Data: s.data, Set: s.set}
		} else {
			dst[i] = View[T]{}
		}
	}
	return dst
}

// Scan returns a linearizable view of all segments.
func (o *Object[T]) Scan(p *shmem.Proc) []View[T] {
	n := len(o.segs)
	moved := make([]int, n)
	prev := o.collect(p)
	for {
		cur := o.collect(p)
		if sameCollect(prev, cur) {
			return viewOf(cur)
		}
		for i := 0; i < n; i++ {
			ps, cs := int64(-1), int64(-1)
			if prev[i] != nil {
				ps = prev[i].seq
			}
			if cur[i] != nil {
				cs = cur[i].seq
			}
			if ps != cs {
				moved[i]++
				if moved[i] >= 2 {
					// Process i completed a full Update inside our interval;
					// its embedded view is a valid snapshot within it.
					v := make([]View[T], n)
					copy(v, cur[i].view)
					return v
				}
			}
		}
		prev = cur
	}
}

// Update atomically installs v as process index i's segment. Only the owner
// of segment i may call it. The calling process is charged the embedded
// scan's reads plus one write.
func (o *Object[T]) Update(p *shmem.Proc, i int, v T) {
	if i < 0 || i >= len(o.segs) {
		panic(fmt.Sprintf("snapshot: segment %d outside [0..%d)", i, len(o.segs)))
	}
	view := o.Scan(p)
	old := o.segs[i].PeekRef()
	var seq int64 = 1
	if old != nil {
		seq = old.seq + 1
	}
	shmem.WriteRef(p, &o.segs[i], &segment[T]{data: v, set: true, seq: seq, view: view})
}

// Peek returns segment i's current value without charging steps (harness
// use only).
func (o *Object[T]) Peek(i int) View[T] {
	s := o.segs[i].PeekRef()
	if s == nil {
		return View[T]{}
	}
	return View[T]{Data: s.data, Set: s.set}
}
