package snapshot

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/vexec"
)

// ScanFrame is the frame compilation of Scan: collects of the n segments in
// order, one ReadRef per granted step, until two consecutive collects agree
// or a segment has moved twice. The returned view is delivered through the
// destination pointer planted by Init (frames returning slices cannot use
// M.RetI).
type ScanFrame[T any] struct {
	o     *Object[T]
	out   *[]View[T]
	moved []int
	// bufs holds the last two collects: collect c fills bufs[c&1], so the
	// one before it stays live in the other buffer.
	bufs [2][]*segment[T]
	cn   uint8 // collects started; the one in flight fills bufs[(cn-1)&1]
	i    int   // next segment the collect in flight reads
	pc   uint8 // 0 before the first collect, 1 during it, 2 after
}

// Init arms the frame for one scan of o; the view lands in *out's backing
// array (grown when too small) when the frame finishes. Scratch buffers
// survive re-arming, so a frame driven through many scans into the same
// destination allocates only on its first. A caller that publishes the view
// must clear *out before each scan so the view is freshly allocated.
func (f *ScanFrame[T]) Init(o *Object[T], out *[]View[T]) {
	moved, bufs := f.moved, f.bufs
	*f = ScanFrame[T]{o: o, out: out, bufs: bufs}
	f.moved = grow(moved, len(o.segs))
	clear(f.moved)
}

// CopyFrom makes f a copy of src that shares no buffer with it: the moved
// table and both collects are copied into f's own backing arrays. The
// destination pointer is copied verbatim. It is the save and load of a
// vexec.Cloner whose frame embeds a scan.
func (f *ScanFrame[T]) CopyFrom(src *ScanFrame[T]) {
	moved, b0, b1 := f.moved, f.bufs[0], f.bufs[1]
	*f = *src
	f.moved = append(moved[:0], src.moved...)
	f.bufs = [2][]*segment[T]{append(b0[:0], src.bufs[0]...), append(b1[:0], src.bufs[1]...)}
}

// grow returns a length-n slice reusing buf's backing array when it is large
// enough. Contents are unspecified; callers overwrite every entry.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// collect starts the next collect in the buffer the previous collect does
// not occupy, and posts its first read.
func (f *ScanFrame[T]) collect(m *vexec.M) vexec.Status {
	b := &f.bufs[f.cn&1]
	*b = grow(*b, len(f.o.segs))
	f.cn++
	f.i = 0
	return m.Intend(shmem.OpRead, &f.o.segs[0])
}

func (f *ScanFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.pc == 0 {
		f.pc = 1
		return f.collect(m)
	}
	cur := f.bufs[(f.cn-1)&1]
	cur[f.i] = shmem.ReadRef(p, &f.o.segs[f.i])
	f.i++
	n := len(cur)
	if f.i < n {
		return m.Intend(shmem.OpRead, &f.o.segs[f.i])
	}
	if f.pc == 1 {
		f.pc = 2
		return f.collect(m)
	}
	prev := f.bufs[f.cn&1]
	if sameCollect(prev, cur) {
		*f.out = viewInto(grow(*f.out, n), cur)
		return vexec.Done
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
			f.moved[i]++
			if f.moved[i] >= 2 {
				// An embedded view has all n entries, so the copy
				// overwrites every entry of a reused buffer.
				v := grow(*f.out, n)
				copy(v, cur[i].view)
				*f.out = v
				return vexec.Done
			}
		}
	}
	return f.collect(m)
}

// UpdateFrame is the frame compilation of Update: the embedded scan's reads
// followed by one WriteRef installing the new segment.
type UpdateFrame[T any] struct {
	o    *Object[T]
	i    int
	v    T
	sf   ScanFrame[T]
	view []View[T]
	seg  *segment[T]
	pc   uint8
}

// Init arms the frame to install v as segment i of o. The embedded scan
// frame is re-armed in place (not zeroed) so its scratch buffers carry over.
// Clearing f.view is what keeps the embedded view fresh: the scan then
// allocates it rather than overwriting the view the previous segment
// published.
func (f *UpdateFrame[T]) Init(o *Object[T], i int, v T) {
	f.o, f.i, f.v = o, i, v
	f.view = nil
	f.seg = nil
	f.pc = 0
}

// CopyFrom makes f a copy of src that shares no mutable buffer with it, as
// ScanFrame.CopyFrom. The view and the segment are copied by pointer: the
// scan allocates the view fresh and neither is written again once built, so
// a saved copy may share them with the segment they are published in.
func (f *UpdateFrame[T]) CopyFrom(src *UpdateFrame[T]) {
	f.o, f.i, f.v, f.view, f.seg, f.pc = src.o, src.i, src.v, src.view, src.seg, src.pc
	f.sf.CopyFrom(&src.sf)
}

func (f *UpdateFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.i < 0 || f.i >= len(f.o.segs) {
			panic(fmt.Sprintf("snapshot: segment %d outside [0..%d)", f.i, len(f.o.segs)))
		}
		f.pc = 1
		f.sf.Init(f.o, &f.view)
		return m.Call(&f.sf)
	case 1:
		old := f.o.segs[f.i].PeekRef()
		var seq int64 = 1
		if old != nil {
			seq = old.seq + 1
		}
		f.seg = &segment[T]{data: f.v, set: true, seq: seq, view: f.view}
		f.pc = 2
		return m.Intend(shmem.OpWrite, &f.o.segs[f.i])
	default:
		shmem.WriteRef(p, &f.o.segs[f.i], f.seg)
		return vexec.Done
	}
}
