package vexec

import (
	"fmt"

	"repro/internal/shmem"
)

// This file gives the vectorized engine first-class execution state:
// Checkpoint/Restore, the contract the stateful source-DPOR walk
// (internal/explore) is built on. It is the repository's only
// checkpoint/restore stack: the goroutine oracle stays stateless. In the
// paper's model a configuration is the register contents plus each
// process's local state, and both are plain data here: register cells, and
// each lane's frames. Registers are restored through an undo log: every
// write grant pushes the written cell and its pre-image (stateMirror.undo), a
// Snapshot records the log's length, and Restore pops the log back to that
// length, newest first, loading each pre-image. A DFS node is one grant away
// from its parent, so a restore touches only the cells written since the
// capture, not every register the walk has written. The log only describes
// the current branch, so Restore accepts ancestors of the current state only
// and rejects any other snapshot in O(1): every trace event carries a
// never-reused serial (its move stamp) and a snapshot keeps the serial of
// its last event.
//
// Lanes are restored by copy, and only by copy: under EnableState every root
// frame must be a Cloner. A capture saves only the lanes that moved since
// they were last saved: a lane's move stamp identifies its state, so a save
// is shared by every capture taken while its lane stood still. A save holds
// the lane's frame stack, a Cloner copy of its root frame, and its M cells.
// Restore loads the save of each lane that moved since the capture back into
// the very frame objects it was taken from and puts the lane's Proc at its
// captured position (shmem.Proc.RestoreState): no frame is built and no
// access re-runs. A lane that did not move holds exactly its captured frames
// and Proc, so Restore leaves it alone. A finished or panicked lane is never
// saved: it never moves again on the branch, so no restore needs it.

// Snapshot captures the state of an in-flight vexec execution at a decision
// point. Registers are not copied: the snapshot records the undo log's length,
// so it can only be restored while it is an ancestor of the current state
// (snapshots form a stack along a DFS branch), which Restore asserts.
//
// Snapshots are pooled: a search that is done with a capture hands it back
// via ReleaseState and a later Checkpoint reuses its backing arrays. A deep
// DFS checkpoints at every node it can backtrack to, so without reuse the
// captures dominate the walk's allocation profile.
type Snapshot struct {
	e        *Exec
	grants   int64
	fp       uint64
	traceLen int
	serial   uint64 // st.events[traceLen]: the serial of the last event
	restarts int
	undoLen  int // st.undo's length at capture

	procs []shmem.ProcState
	phase []uint8
	moved []uint64 // each lane's move stamp (stateMirror.moved) at capture

	lanes []*laneSave // each lane's saved machine; nil: finished or panicked

	stale [][]int64 // pending reads' stale windows (weak registers only)
}

// laneSave is one lane's machine at a capture, as Restore copies it back:
// the frame stack, a saved copy of the root frame (which holds the state of
// every frame on the stack), and the M cells. A save describes the lane
// state its move stamp names, so every capture taken while the lane stood
// still shares it; refs counts those captures plus the engine's own hold
// (stateMirror.saved).
type laneSave struct {
	stamp  uint64
	refs   int
	root   Cloner // the lane's root frame; nil when the stack is empty
	saved  Frame  // root.Save's copy (kept as a buffer when root is nil)
	stack  []Frame
	intent shmem.Intent
	retI   int64
	retB   bool
}

// Checkpoint captures the current decision point: O(n), plus one frame copy
// per lane that moved since it was last saved.
func (e *Exec) Checkpoint() *Snapshot {
	if !e.st.enabled {
		panic("vexec: Checkpoint without EnableState")
	}
	var s *Snapshot
	if n := len(e.snapFree); n > 0 {
		s = e.snapFree[n-1]
		e.snapFree[n-1] = nil
		e.snapFree = e.snapFree[:n-1]
	} else {
		s = &Snapshot{}
	}
	s.e = e
	s.grants = e.grants
	s.fp = e.fp
	s.traceLen = len(e.traceBuf)
	s.serial = e.st.events[len(e.st.events)-1]
	s.restarts = e.restarts
	s.undoLen = len(e.st.undo)
	s.procs = grow(s.procs, e.n)
	s.phase = append(s.phase[:0], e.phase...)
	s.moved = append(s.moved[:0], e.st.moved...)
	for pid, p := range e.procs {
		p.StateInto(&s.procs[pid])
	}
	s.lanes = grow(s.lanes, e.n)
	for pid := range s.lanes {
		ls := e.laneState(pid)
		if ls != nil {
			ls.refs++
		}
		s.lanes[pid] = ls
	}
	if e.model.Regs != shmem.RegAtomic {
		s.stale = grow(s.stale, e.n)
		for pid, w := range e.staleWin {
			s.stale[pid] = append(s.stale[pid][:0], w...)
		}
	}
	return s
}

// laneState returns the save of lane pid's current state, taking it if the
// lane moved since its last save. A finished or panicked lane gets none: it
// never moves again on this branch. A pending lane whose root frame is not a
// Cloner cannot be restored, so meeting one panics.
func (e *Exec) laneState(pid int) *laneSave {
	if ls := e.st.saved[pid]; ls != nil {
		if ls.stamp == e.st.moved[pid] {
			return ls
		}
		e.st.saved[pid] = nil
		e.st.unref(ls)
	}
	m := &e.ms[pid]
	var root Cloner
	switch e.phase[pid] {
	case phasePending:
		cl, ok := m.stack[0].(Cloner)
		if !ok {
			panic(fmt.Sprintf("vexec: lane %d root frame %T is not a vexec.Cloner (give it Save/Load; vexec.SaveValue serves plain-value frames)",
				pid, rootType(m.stack[0])))
		}
		root = cl
	case phaseCrashed:
		// The stack is gone; only the M cells are left to save.
	default:
		return nil
	}
	var ls *laneSave
	if n := len(e.st.laneFree); n > 0 {
		ls = e.st.laneFree[n-1]
		e.st.laneFree = e.st.laneFree[:n-1]
	} else {
		ls = &laneSave{}
	}
	ls.stamp, ls.refs, ls.root = e.st.moved[pid], 1, root
	if root != nil {
		ls.saved = root.Save(ls.saved)
	}
	ls.stack = append(ls.stack[:0], m.stack...)
	ls.intent, ls.retI, ls.retB = m.intent, m.RetI, m.RetB
	e.st.saved[pid] = ls
	return ls
}

// holdLane makes ls the save of lane pid's current state: Restore has just
// put the lane in the state ls describes.
func (e *Exec) holdLane(pid int, ls *laneSave) {
	if old := e.st.saved[pid]; old != ls {
		ls.refs++
		e.st.saved[pid] = ls
		if old != nil {
			e.st.unref(old)
		}
	}
}

// unref drops one reference to ls, recycling it when none is left.
func (s *stateMirror) unref(ls *laneSave) {
	ls.refs--
	if ls.refs > 0 {
		return
	}
	ls.root = nil
	clear(ls.stack)
	ls.stack = ls.stack[:0]
	ls.intent = shmem.Intent{}
	s.laneFree = append(s.laneFree, ls)
}

// grow resizes buf to length n, reusing its backing array when it is big
// enough; new or recycled elements are overwritten by the caller.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ReleaseState hands a capture back for reuse: the next Checkpoint recycles
// its backing arrays. Only captures this engine produced are accepted, and a
// released snapshot must never be Restored again (Restore panics on one).
// Releasing is optional — unreleased snapshots are simply garbage.
func (e *Exec) ReleaseState(s *Snapshot) {
	if s.e != e {
		return // another engine's or an already-released capture: nothing to recycle
	}
	s.e = nil
	for pid, ls := range s.lanes {
		if ls != nil {
			e.st.unref(ls)
			s.lanes[pid] = nil
		}
	}
	e.snapFree = append(e.snapFree, s)
}

// Restore rewinds the engine to a Snapshot taken earlier on the current
// branch: the undo log pops back to the capture's length, each cell written
// since loading its pre-image, and bookkeeping rolls back. A snapshot that is
// not an ancestor of the current state (one taken on a branch a later
// Restore abandoned), a released one and another engine's one panic.
// Then every lane that moved since the capture — was granted, crashed or
// restarted, so its move stamp differs from the captured one — has reset (if
// non-nil) clear the caller's body-external capture for it, and is put back
// at its captured state by copying its saved frames, M cells and Proc
// position. A lane that did not move keeps its frames, Proc and outcome
// untouched; only its pending bit is set again. On return the engine is at
// the captured decision point: same registers, pending set, posted intents,
// lane frames and Fingerprint. No grant is re-executed.
func (e *Exec) Restore(s *Snapshot, reset func(pid int)) {
	if !e.st.enabled {
		panic("vexec: Restore without EnableState")
	}
	if s.e != e {
		if s.e == nil {
			panic("vexec: Restore of a released snapshot")
		}
		panic("vexec: Restore of a snapshot from a different engine")
	}
	// The event at the capture's trace position still carries the serial
	// the capture saw only if no Restore has rewound below it since: then
	// the capture is an ancestor and the undo log above its length is
	// exactly the writes made since.
	if s.traceLen >= len(e.st.events) || e.st.events[s.traceLen] != s.serial {
		panic("vexec: Restore target is not an ancestor of the current state (snapshots form a stack)")
	}
	for i := len(e.st.undo) - 1; i >= s.undoLen; i-- {
		u := &e.st.undo[i]
		u.cell.LoadState(u.pre)
		*u = undoEntry{}
	}
	e.st.undo = e.st.undo[:s.undoLen]
	e.st.events = e.st.events[:s.traceLen+1]
	e.traceBuf = e.traceBuf[:s.traceLen]
	e.fp = s.fp
	e.grants = s.grants
	e.restarts = s.restarts
	if e.model.Regs != shmem.RegAtomic {
		for pid := range e.staleWin {
			e.staleWin[pid] = append(e.staleWin[pid][:0], s.stale[pid]...)
		}
	}
	for i := range e.pbits {
		e.pbits[i] = 0
	}
	e.npending = 0
	for pid := 0; pid < e.n; pid++ {
		if e.st.moved[pid] != s.moved[pid] {
			if reset != nil {
				reset(pid)
			}
			ls := s.lanes[pid]
			if ls == nil {
				panic(fmt.Sprintf("vexec: lane %d moved after a capture that found it %s", pid, phaseName(s.phase[pid])))
			}
			e.loadLane(pid, s.procs[pid], s.phase[pid], ls)
			e.holdLane(pid, ls)
			e.st.moved[pid] = s.moved[pid]
			continue
		}
		if e.phase[pid] != s.phase[pid] {
			panic(fmt.Sprintf("vexec: unmoved lane %d in phase %s, captured %s",
				pid, phaseName(e.phase[pid]), phaseName(s.phase[pid])))
		}
		if e.phase[pid] == phasePending {
			e.pbits[uint(pid)>>6] |= 1 << (uint(pid) & 63)
			e.npending++
		}
	}
}

// loadLane puts lane pid back at a captured state by copy: Restore's work
// for a lane that moved since the capture. The root frame loads
// its saved copy, the stack and M cells are copied back, and the Proc goes
// straight to its captured position, so the lane stands exactly where the
// capture found it without re-running an access.
func (e *Exec) loadLane(pid int, ps shmem.ProcState, phase uint8, ls *laneSave) {
	e.procs[pid].RestoreState(ps)
	e.phase[pid] = phase
	e.err[pid] = nil
	e.retI[pid], e.retB[pid] = 0, false
	m := &e.ms[pid]
	clear(m.stack)
	m.stack = append(m.stack[:0], ls.stack...)
	if ls.root != nil {
		ls.root.Load(ls.saved)
	}
	m.intent, m.RetI, m.RetB = ls.intent, ls.retI, ls.retB
	if phase == phasePending {
		e.pbits[uint(pid)>>6] |= 1 << (uint(pid) & 63)
		e.npending++
	}
}

// rootType names a root frame for the Cloner panic: the capture wrapper's
// child when the root is one, since that is the type to give Save/Load.
func rootType(f Frame) Frame {
	if c, ok := f.(*captureFrame); ok {
		return c.child
	}
	return f
}
