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
// repeatedly collects; if two successive collects are identical it returns
// that direct view. Otherwise it tracks movers: a process observed to move
// twice since the scan began has completed an entire Update inside the
// scan's interval, so its embedded view is valid and is borrowed. A scan
// therefore finishes after at most n+1 collects: each repeat is charged to
// a distinct second-time mover.
//
// Memory: segments are immutable once written, so an embedded view is kept
// as the collect it came from — n pointers to the segments read, not n
// copies of their values — and a borrowed view is the mover's slice itself,
// not a copy. A direct update therefore allocates one segment plus n
// pointers, a borrowed one a single segment. The price is reachability: a
// superseded segment stays live while any embedded view points at it, so an
// object retains its update history for as long as it is itself reachable.
// Every user in this repository builds a fresh object per one-shot
// instance.
//
// A scan keeps one collect buffer: each read overwrites the entry the
// previous collect read at the same index, after comparing the two.
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

// segment is the immutable content of one snapshot register. The initial,
// never-updated state is a nil segment.
type segment[T any] struct {
	data T
	seq  int64 // writer's update counter, from 1
	// view is the writer's embedded scan as a collect: the segments it read
	// (nil where unset), or the view it borrowed from a mover, shared.
	view []*segment[T]
}

// seqOf returns s's update counter, 0 for the unset state.
func seqOf[T any](s *segment[T]) int64 {
	if s == nil {
		return 0
	}
	return s.seq
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

// collector is the bookkeeping of one scan, shared by Scan and ScanFrame:
// the one collect buffer and how often each segment has moved.
type collector[T any] struct {
	buf   []*segment[T]
	moved []uint8 // never exceeds 2: the scan ends with the collect that makes it 2
	// same reports that the collect in flight has read only what the
	// previous collect read.
	same bool
	// borrow is the first segment seen to move twice in the collect in
	// flight, or -1.
	borrow int
}

// begin starts a collect.
func (c *collector[T]) begin() { c.same, c.borrow = true, -1 }

// read records s as entry i of the collect in flight. Unless the collect is
// the scan's first, s is compared with the entry it overwrites, which the
// previous collect read: a changed entry is a move.
func (c *collector[T]) read(i int, s *segment[T], first bool) {
	if !first && seqOf(c.buf[i]) != seqOf(s) {
		c.same = false
		c.moved[i]++
		if c.moved[i] >= 2 && c.borrow < 0 {
			c.borrow = i
		}
	}
	c.buf[i] = s
}

// result returns the scan's view once a collect other than the first has
// finished: the buffer when it matched the previous collect, else the view
// embedded in the first segment to move twice, which completed a whole
// Update inside the scan. ok is false when the scan needs another collect.
func (c *collector[T]) result() (view []*segment[T], ok bool) {
	if c.same {
		return c.buf, true
	}
	if c.borrow >= 0 {
		return c.buf[c.borrow].view, true
	}
	return nil, false
}

// scan runs one scan for p and returns its view as a collect. A direct view
// is the scan's own freshly allocated buffer; a borrowed one is the mover's
// embedded slice.
func (o *Object[T]) scan(p *shmem.Proc) []*segment[T] {
	n := len(o.segs)
	c := collector[T]{buf: make([]*segment[T], n), moved: make([]uint8, n)}
	for first := true; ; first = false {
		c.begin()
		for i := range o.segs {
			c.read(i, shmem.ReadRef(p, &o.segs[i]), first)
		}
		if v, ok := c.result(); ok && !first {
			return v
		}
	}
}

// viewOf returns the view entry of segment s as a collect holds it.
func viewOf[T any](s *segment[T]) View[T] {
	if s == nil {
		return View[T]{}
	}
	return View[T]{Data: s.data, Set: true}
}

// Scan returns a linearizable view of all segments.
func (o *Object[T]) Scan(p *shmem.Proc) []View[T] {
	c := o.scan(p)
	v := make([]View[T], len(c))
	for i, s := range c {
		v[i] = viewOf(s)
	}
	return v
}

// Update atomically installs v as process index i's segment. Only the owner
// of segment i may call it. The calling process is charged the embedded
// scan's reads plus one write.
func (o *Object[T]) Update(p *shmem.Proc, i int, v T) {
	if i < 0 || i >= len(o.segs) {
		panic(fmt.Sprintf("snapshot: segment %d outside [0..%d)", i, len(o.segs)))
	}
	view := o.scan(p)
	seq := seqOf(o.segs[i].PeekRef()) + 1
	shmem.WriteRef(p, &o.segs[i], &segment[T]{data: v, seq: seq, view: view})
}

// Peek returns segment i's current value without charging steps (harness
// use only).
func (o *Object[T]) Peek(i int) View[T] { return viewOf(o.segs[i].PeekRef()) }
