package snapshot

import (
	"fmt"
	"slices"

	"repro/internal/shmem"
	"repro/internal/vexec"
)

// ScanFrame is the frame compilation of Scan: collects of the n segments in
// order, one ReadRef per granted step, until two consecutive collects agree
// or a segment has moved twice. The finished view is not copied out: View
// reads it in place, from the frame's collect buffer or the borrowed
// mover's embedded view.
type ScanFrame[T any] struct {
	o  *Object[T]
	c  collector[T]
	i  int   // next segment the collect in flight reads
	pc uint8 // 0 before the first collect, 1 during it, 2 after
}

// Init arms the frame for one scan of o. The collect buffer and the moved
// table survive re-arming, so a frame driven through many scans allocates
// only on its first.
func (f *ScanFrame[T]) Init(o *Object[T]) {
	c := f.c
	*f = ScanFrame[T]{o: o}
	f.c.buf = grow(c.buf, len(o.segs))
	f.c.moved = grow(c.moved, len(o.segs))
	clear(f.c.moved)
}

// CopyFrom makes f a copy of src that shares no buffer with it: the moved
// table and the collect are copied into f's own backing arrays. It is the
// save and load of a vexec.Cloner whose frame embeds a scan.
func (f *ScanFrame[T]) CopyFrom(src *ScanFrame[T]) {
	buf, moved := f.c.buf, f.c.moved
	*f = *src
	f.c.buf = append(buf[:0], src.c.buf...)
	f.c.moved = append(moved[:0], src.c.moved...)
}

// grow returns a length-n slice reusing buf's backing array when it is large
// enough. Contents are unspecified; callers overwrite every entry.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// collect starts the next collect and posts its first read.
func (f *ScanFrame[T]) collect(m *vexec.M) vexec.Status {
	f.c.begin()
	f.i = 0
	return m.Intend(shmem.OpRead, &f.o.segs[0])
}

func (f *ScanFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.pc == 0 {
		f.pc = 1
		return f.collect(m)
	}
	f.c.read(f.i, shmem.ReadRef(p, &f.o.segs[f.i]), f.pc == 1)
	f.i++
	if f.i < len(f.c.buf) {
		return m.Intend(shmem.OpRead, &f.o.segs[f.i])
	}
	if f.pc == 1 {
		f.pc = 2
		return f.collect(m)
	}
	if _, ok := f.c.result(); !ok {
		return f.collect(m)
	}
	return vexec.Done
}

// Collect is a finished scan's view read in place: entry i is segment i as
// the scan saw it. It reads the scan frame's collect buffer, so it is valid
// until that frame is re-armed.
type Collect[T any] struct{ segs []*segment[T] }

// Len returns the number of entries, one per segment.
func (c Collect[T]) Len() int { return len(c.segs) }

// At returns entry i.
func (c Collect[T]) At(i int) View[T] { return viewOf(c.segs[i]) }

// View returns the view of the scan the frame has finished.
func (f *ScanFrame[T]) View() Collect[T] {
	v, _ := f.c.result()
	return Collect[T]{v}
}

// published returns the finished scan's view as a segment embeds it: a
// copy of the collect buffer, which the next scan reuses, or the borrowed
// view itself.
func (f *ScanFrame[T]) published() []*segment[T] {
	v, _ := f.c.result()
	if f.c.same {
		return slices.Clone(v)
	}
	return v
}

// UpdateFrame is the frame compilation of Update: the embedded scan's reads
// followed by one WriteRef installing the new segment. The embedded scan
// frame is lent out by Scan between updates.
type UpdateFrame[T any] struct {
	o   *Object[T]
	i   int
	v   T
	sf  ScanFrame[T]
	seg *segment[T]
	pc  uint8
}

// Init arms the frame to install v as segment i of o. The embedded scan
// frame is re-armed in place (not zeroed) so its scratch buffers carry over.
func (f *UpdateFrame[T]) Init(o *Object[T], i int, v T) {
	f.o, f.i, f.v = o, i, v
	f.seg = nil
	f.pc = 0
}

// CopyFrom makes f a copy of src that shares no mutable buffer with it, as
// ScanFrame.CopyFrom. The segment is copied by pointer: it is immutable once
// built, so a saved copy may share it.
func (f *UpdateFrame[T]) CopyFrom(src *UpdateFrame[T]) {
	f.o, f.i, f.v, f.seg, f.pc = src.o, src.i, src.v, src.seg, src.pc
	f.sf.CopyFrom(&src.sf)
}

// Scan returns the update's embedded scan frame. Once the update has
// returned the frame is idle, and the caller may re-arm it for a scan of its
// own until the update frame runs again: the published segment holds a copy
// of the collect buffer or a mover's slice, never the buffer itself, so the
// re-armed scan cannot change it.
func (f *UpdateFrame[T]) Scan() *ScanFrame[T] { return &f.sf }

func (f *UpdateFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.i < 0 || f.i >= len(f.o.segs) {
			panic(fmt.Sprintf("snapshot: segment %d outside [0..%d)", f.i, len(f.o.segs)))
		}
		f.pc = 1
		f.sf.Init(f.o)
		return m.Call(&f.sf)
	case 1:
		seq := seqOf(f.o.segs[f.i].PeekRef()) + 1
		f.seg = &segment[T]{data: f.v, seq: seq, view: f.sf.published()}
		f.pc = 2
		return m.Intend(shmem.OpWrite, &f.o.segs[f.i])
	default:
		shmem.WriteRef(p, &f.o.segs[f.i], f.seg)
		return vexec.Done
	}
}
