package vexec

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// This file gives the vectorized engine first-class execution state with the
// semantics sched.Controller grew in PR 5 — Checkpoint/Restore/StateHash —
// but without the machinery the goroutine engine needs. A frame machine's
// state is plain data (register cells, lane positions, frame structs), so a
// Snapshot is a struct copy: the CellState of every registered register plus
// each lane's ProcState and phase. There is no undo log — restoring loads the
// captured cell states outright (cells first written after the capture rewind
// to the pre-image taken at registration) — and no goroutine respawn: the
// only per-lane work is re-rooting the frame stack and replaying the lane's
// current incarnation from its read log, the same handoff-free catch-up the
// goroutine engine runs, minus the goroutines. And only lanes that moved
// since the capture pay even that: a lane no grant or restart touched still
// holds exactly its captured frames and Proc, so Restore leaves it alone.
//
// The catch-up reuses the grant budget of advance(): a replaying lane's reads
// consume the log (shmem replay mode) and its writes are suppressed, so
// auto-granting exactly steps-since-incarnation intents lands the lane at its
// captured yield point with its frame stack bit-identical to the capture. A
// lane captured crashed gets one extra auto-grant: its post-target access
// exits replay mode, which re-raises the captured crash (shmem.Crash) and
// advance's recovery marks the lane crashed with its stack discarded —
// exactly the state the crash grant left it in.

var _ sched.StateEngine = (*Exec)(nil)
var _ sched.StateReleaser = (*Exec)(nil)

// Snapshot captures the complete state of an in-flight vexec execution at a
// decision point. Unlike the goroutine engine's watermark-based snapshot it
// holds full register pre-images, so it stays valid regardless of what the
// engine does afterwards; the ancestor discipline (snapshots form a stack
// along a DFS branch) is still asserted for engine-swap parity.
//
// Snapshots are pooled: a search that is done with a capture hands it back
// via ReleaseState (sched.StateReleaser) and a later Checkpoint reuses its
// backing arrays. A deep DFS checkpoints at every node, so without reuse the
// captures dominate the walk's allocation profile.
type Snapshot struct {
	sched.StateTag

	e        *Exec
	grants   int64
	fp       uint64
	traceLen int
	restarts int

	regHash  [2]uint64
	cellsLen int               // st.cells registered at capture time
	cells    []shmem.CellState // their contents, by id

	procs []shmem.ProcState
	phase []uint8
	moved []uint64 // each lane's move stamp (stateMirror.moved) at capture

	stale [][]int64 // pending reads' stale windows (weak registers only)
}

// Checkpoint captures the current decision point. O(registered registers + n).
func (e *Exec) Checkpoint() sched.ExecState {
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
	s.restarts = e.restarts
	s.regHash = e.st.regHash
	s.cellsLen = len(e.st.cells)
	s.cells = grow(s.cells, len(e.st.cells))
	s.procs = grow(s.procs, e.n)
	s.phase = append(s.phase[:0], e.phase...)
	s.moved = append(s.moved[:0], e.st.moved...)
	for id := range e.st.cells {
		e.st.cells[id].cell.StateInto(&s.cells[id])
	}
	for pid, p := range e.procs {
		p.StateInto(&s.procs[pid])
		s.procs[pid].Crashed = e.phase[pid] == phaseCrashed
	}
	s.stale = nil
	if e.model.Regs != shmem.RegAtomic {
		s.stale = make([][]int64, e.n)
		for pid, w := range e.staleWin {
			if len(w) > 0 {
				s.stale[pid] = append([]int64(nil), w...)
			}
		}
	}
	return s
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
func (e *Exec) ReleaseState(st sched.ExecState) {
	s, ok := st.(*Snapshot)
	if !ok || s.e != e {
		return // foreign or already-released capture: nothing to recycle
	}
	s.e = nil
	e.snapFree = append(e.snapFree, s)
}

// Restore rewinds the engine to a Snapshot taken earlier on the current
// branch: registered cells load their captured states (cells registered
// since rewind to their registration pre-image) and bookkeeping rolls back.
// Then every lane that moved since the capture — was granted, crashed or
// restarted, so its move stamp differs from the captured one — has reset (if
// non-nil) clear the caller's body-external capture for it, and is re-rooted
// and caught up from its read log. A lane that did not move keeps its frames,
// Proc and outcome untouched; only its pending bit is set again. On return
// the engine is at the captured decision point: same pending set, same
// posted intents, same StateHash, same Fingerprint. No grant is re-executed.
func (e *Exec) Restore(st sched.ExecState, reset func(pid int)) {
	if !e.st.enabled {
		panic("vexec: Restore without EnableState")
	}
	s, ok := st.(*Snapshot)
	if !ok {
		panic(fmt.Sprintf("vexec: Restore of a %T capture on the vectorized engine (snapshots are engine-specific)", st))
	}
	if s.e != e {
		if s.e == nil {
			panic("vexec: Restore of a released snapshot")
		}
		panic("vexec: Restore of a snapshot from a different engine")
	}
	if s.traceLen > len(e.traceBuf) || s.grants > e.grants {
		panic("vexec: Restore target is not an ancestor of the current state (snapshots form a stack)")
	}
	for id := range e.st.cells {
		if id < s.cellsLen {
			e.st.cells[id].cell.LoadState(s.cells[id])
		} else {
			// First written after the capture: back to the contents it had
			// then (no write grant had touched it, so its registration
			// pre-image is its state at every earlier decision point).
			e.st.cells[id].cell.LoadState(e.st.cells[id].initState)
		}
	}
	e.st.regHash = s.regHash
	e.st.pending = pendingWrite{}
	e.traceBuf = e.traceBuf[:s.traceLen]
	e.fp = s.fp
	e.grants = s.grants
	e.restarts = s.restarts
	if e.model.Regs != shmem.RegAtomic {
		for pid := range e.staleWin {
			e.staleWin[pid] = e.staleWin[pid][:0]
			if s.stale != nil {
				e.staleWin[pid] = append(e.staleWin[pid], s.stale[pid]...)
			}
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
			e.catchUp(pid, s.procs[pid], s.phase[pid])
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

// catchUp re-roots lane pid and replays its current incarnation to the
// captured position: Restore's work for a lane that moved since the capture.
// ps carries the lane's read-log cursor and step target; want is the phase
// the lane must land in (asserted — a mismatch means the body is not
// deterministic).
func (e *Exec) catchUp(pid int, ps shmem.ProcState, want uint8) {
	p := e.procs[pid]
	p.LoadState(ps)
	e.phase[pid] = phaseRunning
	e.err[pid] = nil
	e.retI[pid], e.retB[pid] = 0, false
	budget := int(ps.Steps - ps.BaseSteps)
	if want == phaseCrashed {
		// One extra auto-grant: the access after the target is the one the
		// crash grant intercepted; performing it exits replay mode, which
		// re-raises the captured crash before the access or its step charge —
		// the same place the original crash unwound.
		budget++
	}
	m := &e.ms[pid]
	for i := range m.stack {
		m.stack[i] = nil
	}
	m.stack = append(m.stack[:0], e.root(p))
	e.advance(pid, budget)
	if e.phase[pid] != want {
		panic(fmt.Sprintf("vexec: lane %d restored to phase %s, captured %s (non-deterministic body?)",
			pid, phaseName(e.phase[pid]), phaseName(want)))
	}
}
