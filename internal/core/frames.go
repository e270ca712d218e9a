// Frame compilations of the paper's renaming algorithms for the vectorized
// engine (internal/vexec). Each frame is the mechanical unrolling of the
// corresponding Rename body at its register-access points: same accesses in
// the same order, same panics at the same logical positions, same result —
// the bit-identity contract the differential tests in internal/vexec enforce
// against the goroutine engine.
package core

import (
	"fmt"

	"repro/internal/afrename"
	"repro/internal/compete"
	"repro/internal/marename"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// majorityFrame compiles Majority.Rename: a competition per expander
// neighbor of the original name, in neighbor order.
type majorityFrame struct {
	ma      *Majority
	orig    int64
	i       int
	w       int
	cf      compete.CompeteFrame
	entered bool
}

// init re-arms the frame for one walk of ma with original name orig.
func (f *majorityFrame) init(ma *Majority, orig int64) {
	*f = majorityFrame{ma: ma, orig: orig}
}

// FrameRename implements vexec.FrameRenamer.
func (ma *Majority) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[majorityFrame](dst)
	f.init(ma, orig)
	return f
}

// Save and Load implement vexec.Cloner: the frame and its competition are
// plain values.
func (f *majorityFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *majorityFrame) Load(src vexec.Frame)             { *f = *src.(*majorityFrame) }

func (f *majorityFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if !f.entered {
		if f.orig < 1 || f.orig > int64(f.ma.graph.N) {
			panic(fmt.Sprintf("core: original name %d outside [1..%d]", f.orig, f.ma.graph.N))
		}
		f.entered = true
	} else {
		if m.RetB {
			return m.Return(int64(f.w), true)
		}
		f.i++
	}
	if f.i >= f.ma.graph.Degree {
		return m.Return(0, false)
	}
	f.w = f.ma.graph.Neighbor(f.orig, f.i)
	f.cf.Init(f.ma.field.Pair(f.w-1), f.orig)
	return m.Call(&f.cf)
}

// basicFrame compiles Basic.Rename: the Majority stages in order until one
// assigns a name.
type basicFrame struct {
	b       *Basic
	orig    int64
	s       int
	mf      majorityFrame
	entered bool
}

func (f *basicFrame) init(b *Basic, orig int64) {
	*f = basicFrame{b: b, orig: orig}
}

// FrameRename implements vexec.FrameRenamer.
func (b *Basic) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[basicFrame](dst)
	f.init(b, orig)
	return f
}

func (f *basicFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *basicFrame) Load(src vexec.Frame)             { *f = *src.(*basicFrame) }

func (f *basicFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered {
		if m.RetB {
			return m.Return(f.b.bases[f.s]+m.RetI, true)
		}
		f.s++
	}
	f.entered = true
	if f.s >= len(f.b.stages) {
		return m.Return(0, false)
	}
	f.mf.init(f.b.stages[f.s], f.orig)
	return m.Call(&f.mf)
}

// polylogFrame compiles PolyLog.Rename: the name flows through the Basic
// epochs; any failed epoch aborts the pipeline.
type polylogFrame struct {
	pl      *PolyLog
	cur     int64
	j       int
	bf      basicFrame
	entered bool
}

func (f *polylogFrame) init(pl *PolyLog, orig int64) {
	*f = polylogFrame{pl: pl, cur: orig}
}

// FrameRename implements vexec.FrameRenamer.
func (pl *PolyLog) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[polylogFrame](dst)
	f.init(pl, orig)
	return f
}

func (f *polylogFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *polylogFrame) Load(src vexec.Frame)             { *f = *src.(*polylogFrame) }

func (f *polylogFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered {
		if !m.RetB {
			return m.Return(0, false)
		}
		f.cur = m.RetI
		f.j++
	}
	f.entered = true
	if f.j >= len(f.pl.epochs) {
		if f.cur < 1 || f.cur > f.pl.maxName {
			panic(fmt.Sprintf("core: PolyLog produced name %d outside [1..%d]", f.cur, f.pl.maxName))
		}
		return m.Return(f.cur, true)
	}
	f.bf.init(f.pl.epochs[f.j], f.cur)
	return m.Call(&f.bf)
}

// efficientFrame compiles Efficient.Rename: grid → polylog → AF stage; a
// failed stage fails the rename.
type efficientFrame struct {
	e    *Efficient
	orig int64
	gf   marename.GridFrame
	plf  polylogFrame
	aff  afrename.RenameFrame
	pc   uint8
}

// init re-arms the frame for one walk of e with original name orig. The AF
// stage is kept, not zeroed: its Init re-arms it, and its buffers carry
// across the doubling levels an adaptiveFrame walks and across the walks of
// a re-armed frame.
func (f *efficientFrame) init(e *Efficient, orig int64) {
	*f = efficientFrame{e: e, orig: orig, aff: f.aff}
}

// FrameRename implements vexec.FrameRenamer.
func (e *Efficient) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[efficientFrame](dst)
	f.init(e, orig)
	return f
}

// copyFrom makes f a copy of src: the grid and polylog stages are plain
// values, the AF stage copies without sharing its buffers.
func (f *efficientFrame) copyFrom(src *efficientFrame) {
	f.e, f.orig, f.gf, f.plf, f.pc = src.e, src.orig, src.gf, src.plf, src.pc
	f.aff.CopyFrom(&src.aff)
}

func (f *efficientFrame) Save(dst vexec.Frame) vexec.Frame {
	return vexec.SaveWith(f, dst, (*efficientFrame).copyFrom)
}
func (f *efficientFrame) Load(src vexec.Frame) { f.copyFrom(src.(*efficientFrame)) }

func (f *efficientFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.pc > 0 && !m.RetB {
		return m.Return(0, false) // the stage just run failed
	}
	switch f.pc {
	case 0:
		f.pc = 1
		f.gf.Init(f.e.grid, f.orig)
		return m.Call(&f.gf)
	case 1:
		f.pc = 2
		f.plf.init(f.e.poly, m.RetI)
		return m.Call(&f.plf)
	case 2:
		f.pc = 3
		f.aff.Init(f.e.af, int(m.RetI-1), m.RetI)
		return m.Call(&f.aff)
	default:
		return m.Return(m.RetI, true)
	}
}

// almostFrame compiles AlmostAdaptive.Rename: PolyLog doubling levels in
// order, then the object-wide fallback lane.
type almostFrame struct {
	a    *AlmostAdaptive
	orig int64
	i    int
	plf  polylogFrame
	aff  afrename.RenameFrame
	pc   uint8
}

// init re-arms the frame for one walk of a with original name orig, keeping
// the AF stage as efficientFrame.init does.
func (f *almostFrame) init(a *AlmostAdaptive, orig int64) {
	*f = almostFrame{a: a, orig: orig, aff: f.aff}
}

// FrameRename implements vexec.FrameRenamer.
func (a *AlmostAdaptive) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[almostFrame](dst)
	f.init(a, orig)
	return f
}

func (f *almostFrame) copyFrom(src *almostFrame) {
	f.a, f.orig, f.i, f.plf, f.pc = src.a, src.orig, src.i, src.plf, src.pc
	f.aff.CopyFrom(&src.aff)
}

func (f *almostFrame) Save(dst vexec.Frame) vexec.Frame {
	return vexec.SaveWith(f, dst, (*almostFrame).copyFrom)
}
func (f *almostFrame) Load(src vexec.Frame) { f.copyFrom(src.(*almostFrame)) }

func (f *almostFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
	case 1:
		if m.RetB {
			return m.Return(f.a.bases[f.i]+m.RetI, true)
		}
		f.i++
	default:
		if !m.RetB {
			return m.Return(0, false)
		}
		return m.Return(f.a.MaxName()+m.RetI, true)
	}
	if f.i < len(f.a.levels) {
		f.plf.init(f.a.levels[f.i], f.orig)
		return m.Call(&f.plf)
	}
	f.a.fallbackCount.Add(1)
	f.pc = 2
	f.aff.Init(f.a.fallback, p.ID(), f.orig)
	return m.Call(&f.aff)
}

// adaptiveFrame compiles Adaptive.Rename: Efficient doubling levels in
// order, then the object-wide fallback lane, which runs on the levels' AF
// stage frame: every level has returned by then, so it is idle.
type adaptiveFrame struct {
	a    *Adaptive
	orig int64
	i    int
	ef   efficientFrame
	pc   uint8
}

// init re-arms the frame for one walk of a with original name orig, keeping
// the levels' AF stage as efficientFrame.init does.
func (f *adaptiveFrame) init(a *Adaptive, orig int64) {
	*f = adaptiveFrame{a: a, orig: orig, ef: efficientFrame{aff: f.ef.aff}}
}

// FrameRename implements vexec.FrameRenamer.
func (a *Adaptive) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[adaptiveFrame](dst)
	f.init(a, orig)
	return f
}

func (f *adaptiveFrame) copyFrom(src *adaptiveFrame) {
	f.a, f.orig, f.i, f.pc = src.a, src.orig, src.i, src.pc
	f.ef.copyFrom(&src.ef)
}

func (f *adaptiveFrame) Save(dst vexec.Frame) vexec.Frame {
	return vexec.SaveWith(f, dst, (*adaptiveFrame).copyFrom)
}
func (f *adaptiveFrame) Load(src vexec.Frame) { f.copyFrom(src.(*adaptiveFrame)) }

func (f *adaptiveFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
	case 1:
		if m.RetB {
			return m.Return(f.a.bases[f.i]+m.RetI, true)
		}
		f.i++
	default:
		if !m.RetB {
			return m.Return(0, false)
		}
		return m.Return(f.a.MaxName()+m.RetI, true)
	}
	if f.i < len(f.a.levels) {
		f.ef.init(f.a.levels[f.i], f.orig)
		return m.Call(&f.ef)
	}
	f.a.fallbackCount.Add(1)
	f.pc = 2
	f.ef.aff.Init(f.a.fallback, p.ID(), f.orig)
	return m.Call(&f.ef.aff)
}

// Compile-time checks that every renaming algorithm compiles to frames,
// and that every root frame restores by copy.
var (
	_ vexec.Cloner = (*majorityFrame)(nil)
	_ vexec.Cloner = (*basicFrame)(nil)
	_ vexec.Cloner = (*polylogFrame)(nil)
	_ vexec.Cloner = (*efficientFrame)(nil)
	_ vexec.Cloner = (*almostFrame)(nil)
	_ vexec.Cloner = (*adaptiveFrame)(nil)

	_ vexec.FrameRenamer = (*Majority)(nil)
	_ vexec.FrameRenamer = (*Basic)(nil)
	_ vexec.FrameRenamer = (*PolyLog)(nil)
	_ vexec.FrameRenamer = (*Efficient)(nil)
	_ vexec.FrameRenamer = (*AlmostAdaptive)(nil)
	_ vexec.FrameRenamer = (*Adaptive)(nil)
)
