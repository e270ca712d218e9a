package afrename

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/vexec"
)

// RenameFrame is the frame compilation of Rename: propose/scan rounds over
// the embedded snapshot until the proposal is unique in the view (or a
// configured bound is hit). An attempt's two scans, the update's and the
// decision's, run on the update frame's one scan frame, and the decision
// reads the finished collect in place. The (name, ok) result lands in
// M.RetI/M.RetB.
type RenameFrame struct {
	r       *Renamer
	slot    int
	id      int64
	prop    int64
	attempt int
	uf      snapshot.UpdateFrame[entry]
	taken   []int64
	pc      uint8
}

// Init arms the frame for one acquisition on r from slot with identity id.
// The embedded update frame and the taken scratch are re-armed in place, not
// zeroed, so their buffers carry across acquisitions.
func (f *RenameFrame) Init(r *Renamer, slot int, id int64) {
	f.r, f.slot, f.id = r, slot, id
	f.prop, f.attempt = 0, 0
	f.pc = 0
}

// CopyFrom makes f a copy of src that shares no mutable buffer with it: the
// embedded update frame copies as its CopyFrom says, the taken scratch into
// f's own backing array. It is the save and load of a vexec.Cloner whose
// frame embeds an acquisition.
func (f *RenameFrame) CopyFrom(src *RenameFrame) {
	f.r, f.slot, f.id, f.prop, f.attempt, f.pc = src.r, src.slot, src.id, src.prop, src.attempt, src.pc
	f.uf.CopyFrom(&src.uf)
	f.taken = append(f.taken[:0], src.taken...)
}

func (f *RenameFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.id == shmem.Null {
			panic("afrename: identity must be non-null")
		}
		if f.slot < 0 || f.slot >= f.r.snap.Len() {
			panic(fmt.Sprintf("afrename: slot %d outside [0..%d)", f.slot, f.r.snap.Len()))
		}
		f.prop = 1
		f.attempt = 1
		return f.beginAttempt(m)
	case 1:
		// Update finished; scan for the decision view on the update's idle
		// scan frame. The view is read only by this attempt's decision and
		// never published, so it is read where the scan left it.
		f.pc = 2
		sf := f.uf.Scan()
		sf.Init(f.r.snap)
		return m.Call(sf)
	default:
		view := f.uf.Scan().View()
		if unique(view, f.slot, f.prop) {
			return m.Return(f.prop, true)
		}
		f.prop, f.taken = freeNameByRank(view, f.slot, f.id, f.taken)
		if f.r.MaxAttempts > 0 && f.attempt >= f.r.MaxAttempts {
			return m.Return(0, false)
		}
		f.attempt++
		return f.beginAttempt(m)
	}
}

// beginAttempt starts one propose/scan round: the MaxName gate, then the
// snapshot update publishing the proposal.
func (f *RenameFrame) beginAttempt(m *vexec.M) vexec.Status {
	if f.r.MaxName > 0 && f.prop > f.r.MaxName {
		return m.Return(0, false)
	}
	f.pc = 1
	f.uf.Init(f.r.snap, f.slot, entry{id: f.id, prop: f.prop})
	return m.Call(&f.uf)
}
