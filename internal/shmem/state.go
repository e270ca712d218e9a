package shmem

// This file is the state-capture surface of the shared-memory layer: the
// pieces that let an engine treat the complete condition of an in-flight
// execution as a first-class value (vexec.Snapshot, the repository's one
// checkpoint/restore stack). A configuration is the register contents plus
// each process's local state. Registers capture and restore their contents
// (CellState / StateCell), so a checkpointing engine keeps the pre-image of
// each register a grant writes and loads it back instead of re-executing the
// schedule prefix. A process's local state lives in the engine's saved
// frames; the Proc handle contributes only its step and restart counters
// (ProcState).

// CellState is one register's captured contents: the scalar word of a Reg or
// the pointer of a Ref. It is produced by StateInto and only meaningful to
// LoadState on the same cell. Holding the Ref pointer as a live reference
// (not raw bits) keeps the pointed-to snapshot value reachable for the
// garbage collector while a checkpoint that needs it is alive.
type CellState struct {
	word int64
	ref  any
}

// StateCell is implemented by every register type (*Reg, *Ref[T]): the
// capture/restore surface a checkpointing scheduler drives through the
// register identities it observes in Intents.
type StateCell interface {
	// StateInto captures the current contents.
	StateInto(s *CellState)
	// LoadState restores a capture previously taken from this same cell.
	LoadState(s CellState)
}

// Compile-time checks that both register types are capturable.
var (
	_ StateCell = (*Reg)(nil)
	_ StateCell = (*Ref[int])(nil)
)

// ProcState is the captured position of one process handle: its cumulative
// local step count and its restart count.
type ProcState struct {
	Steps    int64
	Restarts int
}

// StateInto captures the process's position. The engine calls it only at a
// decision point (the process pending, crashed, or finished), so the fields
// are stable.
func (p *Proc) StateInto(s *ProcState) {
	s.Steps = p.steps
	s.Restarts = p.restarts
}

// RestoreState puts the handle back at a captured position. The caller
// restores the body's local state by copy (a frame engine's saved frames)
// and the registers from their own captures.
func (p *Proc) RestoreState(s ProcState) {
	p.steps = s.Steps
	p.restarts = s.Restarts
	p.staleArm = false
}
