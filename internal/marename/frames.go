package marename

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// splitFrame is the frame compilation of split: the four-access splitter
// body. The outcome is published through M.RetI (as an outcome value).
type splitFrame struct {
	cell *splitterCell
	id   int64
	pc   uint8
}

func (f *splitFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.Intend(shmem.OpWrite, &f.cell.x)
	case 1:
		p.Write(&f.cell.x, f.id)
		f.pc = 2
		return m.Intend(shmem.OpRead, &f.cell.y)
	case 2:
		if p.Read(&f.cell.y) != shmem.Null {
			return m.Return(int64(right), true)
		}
		f.pc = 3
		return m.Intend(shmem.OpWrite, &f.cell.y)
	case 3:
		p.Write(&f.cell.y, 1)
		f.pc = 4
		return m.Intend(shmem.OpRead, &f.cell.x)
	default:
		if p.Read(&f.cell.x) == f.id {
			return m.Return(int64(stop), true)
		}
		return m.Return(int64(down), true)
	}
}

// GridFrame is the frame compilation of Grid.Rename: the diagonal walk from
// cell (0,0), moving right or down per splitter outcome, claiming the cell's
// name on stop and failing off the k-th anti-diagonal.
type GridFrame struct {
	g       *Grid
	id      int64
	r, c    int
	sf      splitFrame
	entered bool
}

// Init arms the frame for one walk of g with identity id.
func (f *GridFrame) Init(g *Grid, id int64) {
	*f = GridFrame{g: g, id: id}
}

// FrameRename compiles Rename(p, orig) into a frame automaton.
func (g *Grid) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[GridFrame](dst)
	f.Init(g, orig)
	return f
}

var (
	_ vexec.FrameRenamer = (*Grid)(nil)
	_ vexec.Cloner       = (*GridFrame)(nil)
)

// Save and Load implement vexec.Cloner: the walk and its splitter are plain
// values.
func (f *GridFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *GridFrame) Load(src vexec.Frame)             { *f = *src.(*GridFrame) }

func (f *GridFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if !f.entered {
		if f.id == shmem.Null {
			panic("marename: identity must be non-null")
		}
		f.entered = true
	} else {
		switch outcome(m.RetI) {
		case stop:
			return m.Return(f.g.cellName(f.r, f.c), true)
		case right:
			f.c++
		default:
			f.r++
		}
	}
	if f.r+f.c > f.g.k-1 {
		return m.Return(0, false)
	}
	f.sf = splitFrame{cell: &f.g.cells[f.r][f.c], id: f.id}
	return m.Call(&f.sf)
}
