package vexec

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// Exec drives n frame-automaton lanes in lock step — the vectorized
// implementation of sched.Engine. Every lane owns a gateless shmem.Proc
// (accesses execute immediately and charge steps locally; no goroutine, no
// gate), so a grant is: record the decision in the embedded sched.Ledger,
// invoke the lane's top frame until it posts its next intent, done. Exactly
// one goroutine may drive an Exec at a time.
type Exec struct {
	sched.Ledger

	ms []M // per lane; a finished lane's RetI/RetB hold its root-frame result

	root func(p *shmem.Proc) Frame // retained for Restart's and Relaunch's respawn

	st       stateMirror
	snapFree []*Snapshot // released captures awaiting reuse (see ReleaseState)
}

var _ sched.Engine = (*Exec)(nil)

// New builds an engine of n lanes, each rooted at root(proc), and advances
// every lane to its first decision point (first intent posted, or already
// finished). names[i] is process i's original name; nil assigns pid+1.
func New(n int, names []int64, root func(p *shmem.Proc) Frame) *Exec {
	e := &Exec{root: root}
	e.Ledger = sched.NewLedger(n, names, nil, e, e.grant)
	e.ms = make([]M, n)
	for i := range e.ms {
		e.ms[i].intent = e.IntentSlot(i)
	}
	for i := 0; i < n; i++ {
		e.spawn(i)
	}
	return e
}

// Reset rewinds the engine in place to the state New(n, names, root) would
// return, reusing every allocation — lanes, machines, bitmaps, stale
// windows. It is the construction amortizer of repeated runs: a campaign
// worker recycles one engine across thousands of independent runs, and a
// stateless tree walk across its executions, instead of reallocating the
// lane set per run. Capability knobs (model,
// tracing, state capture) come back down; re-arm them after Reset as after
// New.
func (e *Exec) Reset(names []int64, root func(p *shmem.Proc) Frame) {
	e.ResetGateless(names)
	e.root = root
	e.st = stateMirror{clock: e.st.clock} // serials stay never-reused across resets
	for i := range e.ms {
		e.ms[i].RetI, e.ms[i].RetB = 0, false
	}
	for i := range e.ms {
		e.spawn(i)
	}
}

// spawn (re)roots lane pid and advances it to its first decision point. The
// entry invocation performs no register access, so a fresh incarnation
// charges no steps until its first grant — as with a fresh goroutine.
func (e *Exec) spawn(pid int) {
	m := &e.ms[pid]
	clearStack(m)
	m.stack = append(m.stack, e.root(e.Proc(pid)))
	e.advance(pid)
}

// Relaunch re-roots a finished or crashed lane from the engine's root and
// advances it to its first decision point — the long-lived driver's lane
// recycling: one engine multiplexes a stream of sessions over a fixed lane
// set, so steady-state execution allocates nothing per session (the root
// can re-arm a retained frame). The lane's Proc identity, cumulative step
// count and register handles persist; a crashed lane is re-rooted as a
// fresh logical process on the same lane (its discarded intent stays
// discarded). Relaunch is a harness action, not a scheduling decision (see
// sched.Ledger.CheckRelaunch): it folds nothing into the fingerprint and
// records no trace event, so a snapshot could not describe the lane it
// re-roots; under EnableState it panics.
func (e *Exec) Relaunch(pid int) {
	e.CheckRelaunch(pid)
	if e.st.enabled {
		panic("vexec: Relaunch under EnableState (relaunches are not replayable decisions)")
	}
	e.Revive(pid)
	e.ms[pid].RetI, e.ms[pid].RetB = 0, false
	*e.ms[pid].intent = shmem.Intent{}
	e.spawn(pid)
}

// advance runs lane pid's frames until the lane posts an intent (pending),
// finishes, or fails.
func (e *Exec) advance(pid int) {
	m := &e.ms[pid]
	p := e.Proc(pid)
	defer func() {
		if r := recover(); r != nil {
			clearStack(m)
			// Frames never raise shmem.Crash themselves (crashes are engine
			// decisions here), but an algorithm aborting with it keeps the
			// goroutine engine's meaning.
			e.Exit(pid, r)
		}
	}()
	for {
		switch m.stack[len(m.stack)-1].Run(m, p) {
		case Call:
			// Child pushed; continue with it — local computation, no access.
		case Done:
			m.stack[len(m.stack)-1] = nil
			m.stack = m.stack[:len(m.stack)-1]
			if len(m.stack) == 0 {
				e.Exit(pid, nil)
				return
			}
		case Yield:
			e.Post(pid)
			return
		}
	}
}

// clearStack empties a lane's frame stack, dropping its frame references.
func clearStack(m *M) {
	clear(m.stack)
	m.stack = m.stack[:0]
}

// grant executes a decision: the ledger records it, state capture logs the
// write's pre-image, and then, instead of a goroutine wakeup, the lane's
// frames advance directly. The ledger's Crash and StepStale reach it through
// NewLedger's grant hook.
func (e *Exec) grant(pid int, crash bool, stale int) {
	e.RecordGrant(pid, crash, stale)
	if e.st.enabled {
		e.stateBeforeGrant(pid, crash)
	}
	if crash {
		// The posted operation never executes and no step is charged — the
		// goroutine engine's crash unwinds inside the gate, before the access
		// and before the step increment. Discard the stack; registers are
		// untouched.
		clearStack(&e.ms[pid])
		e.Exit(pid, shmem.Crash{})
	} else {
		e.advance(pid)
	}
}

// Step grants one shared-memory operation to a pending process. It is
// grant(pid, false, 0) written out: nearly every decision of a run is a
// fresh step, and calling the ledger and advance from here keeps that path
// one call shallower.
func (e *Exec) Step(pid int) {
	e.RecordGrant(pid, false, 0)
	if e.st.enabled {
		e.stateBeforeGrant(pid, false)
	}
	e.advance(pid)
}

// Restart respawns a crashed lane under a recovery model: registers keep
// their contents, the frame stack (local state) is discarded, and a fresh
// root frame runs from the beginning — cumulative step count preserved on
// the Proc, exactly as the goroutine engine's re-run body.
func (e *Exec) Restart(pid int) {
	e.RecordRestart(pid)
	if e.st.enabled {
		e.st.move(pid)
	}
	e.Revive(pid)
	e.spawn(pid)
}

// Returned reports lane pid's root-frame result. Valid only once Done.
func (e *Exec) Returned(pid int) (int64, bool) {
	if !e.Done(pid) {
		return 0, false
	}
	return e.ms[pid].RetI, e.ms[pid].RetB
}

// stateMirror is the engine's state layer: the undo log Restore (state.go)
// pops registers back through, and the move stamps that tell Restore which
// lanes to put back.
type stateMirror struct {
	enabled bool

	// undo holds, per write grant on the current branch, the written cell
	// and its contents before the write, oldest first.
	undo []undoEntry
	// events[i+1] is the serial of trace event i: the move stamp its grant or
	// restart took. events[0] is the serial EnableState took for the empty
	// trace.
	events []uint64

	// moved[pid] is lane pid's move stamp: a fresh value from clock on every
	// grant (step, stale read or crash) and restart of the lane, and the
	// captured value again when Restore puts it back. Stamps are never
	// reused, so a lane whose stamp equals a snapshot's has the state it had
	// at that capture, and Restore need not touch it.
	moved []uint64
	clock uint64

	// saved[pid] is the save of lane pid's state at its stamp saved[pid].stamp
	// (stale once the lane moves on), held so captures taken while the lane
	// stands still share it; laneFree recycles saves no capture holds.
	saved    []*laneSave
	laneFree []*laneSave
}

// move gives lane pid a fresh move stamp, which also serves as the serial
// of the trace event the move records.
func (s *stateMirror) move(pid int) {
	s.clock++
	s.moved[pid] = s.clock
	s.events = append(s.events, s.clock)
}

type undoEntry struct {
	cell shmem.StateCell
	pre  shmem.CellState
}

// EnableState turns on checkpoint/restore. It must run before any grant (so
// the undo log covers the whole execution) and enables tracing. Every lane's
// root frame must then be a Cloner; Checkpoint panics on the first pending
// lane whose root is not.
func (e *Exec) EnableState() {
	if e.Grants() != 0 {
		panic("vexec: EnableState after grants were issued")
	}
	if e.st.enabled {
		return
	}
	e.st.enabled = true
	e.st.clock++
	e.st.events = []uint64{e.st.clock}
	e.st.moved = make([]uint64, e.N())
	e.st.saved = make([]*laneSave, e.N())
	e.EnableTrace() // no grant yet, so no recorded event to discard
}

// stateBeforeGrant gives the granted lane a fresh move stamp and pushes the
// pre-image of the register a write grant is about to write onto the undo
// log.
func (e *Exec) stateBeforeGrant(pid int, crash bool) {
	e.st.move(pid)
	if crash {
		return
	}
	in := *e.ms[pid].intent
	if in.Kind != shmem.OpWrite {
		return
	}
	cell, ok := in.Reg.(shmem.StateCell)
	if !ok {
		panic(fmt.Sprintf("vexec: register %T does not implement shmem.StateCell", in.Reg))
	}
	e.st.undo = append(e.st.undo, undoEntry{cell: cell})
	cell.StateInto(&e.st.undo[len(e.st.undo)-1].pre)
}
