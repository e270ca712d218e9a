package compete

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// CompeteFrame is the frame compilation of Compete: the same five register
// accesses in the same order, one per granted step. The win/lose result is
// published through M.RetB (RetI is always 0, matching the bool-only return
// of the procedure).
type CompeteFrame struct {
	pr *Pair
	id int64
	pc uint8
}

// Init arms the frame for one competition on pr with identity id. Frames are
// embedded by value in their callers and re-armed between calls.
func (f *CompeteFrame) Init(pr *Pair, id int64) {
	f.pr, f.id, f.pc = pr, id, 0
}

func (f *CompeteFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.id == shmem.Null {
			panic("compete: identity must be non-null")
		}
		f.pc = 1
		return m.Intend(shmem.OpRead, &f.pr.H)
	case 1:
		if p.Read(&f.pr.H) != shmem.Null {
			return m.Return(0, false)
		}
		f.pc = 2
		return m.Intend(shmem.OpWrite, &f.pr.H)
	case 2:
		p.Write(&f.pr.H, f.id)
		f.pc = 3
		return m.Intend(shmem.OpRead, &f.pr.R)
	case 3:
		if p.Read(&f.pr.R) != shmem.Null {
			return m.Return(0, false)
		}
		f.pc = 4
		return m.Intend(shmem.OpWrite, &f.pr.R)
	case 4:
		p.Write(&f.pr.R, f.id)
		f.pc = 5
		return m.Intend(shmem.OpRead, &f.pr.H)
	default:
		return m.Return(0, p.Read(&f.pr.H) == f.id)
	}
}

// firstFitFrame is the frame compilation of FirstFit.Rename: competitions on
// pairs 0,1,2,... in order, claiming the first one won.
type firstFitFrame struct {
	ff      *FirstFit
	id      int64
	i       int
	cf      CompeteFrame
	entered bool
}

// FrameRename compiles Rename(p, orig) into a frame automaton.
func (ff *FirstFit) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[firstFitFrame](dst)
	*f = firstFitFrame{ff: ff, id: orig}
	return f
}

var (
	_ vexec.FrameRenamer = (*FirstFit)(nil)
	_ vexec.Cloner       = (*firstFitFrame)(nil)
)

// Save and Load implement vexec.Cloner: the frame and its competition are
// plain values.
func (f *firstFitFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *firstFitFrame) Load(src vexec.Frame)             { *f = *src.(*firstFitFrame) }

func (f *firstFitFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered {
		if m.RetB {
			return m.Return(int64(f.i+1), true)
		}
		f.i++
	}
	f.entered = true
	if f.i >= f.ff.field.Len() {
		return m.Return(0, false)
	}
	f.cf.Init(f.ff.field.Pair(f.i), f.id)
	return m.Call(&f.cf)
}
