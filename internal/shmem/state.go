package shmem

import "sync/atomic"

// This file is the state-capture surface of the shared-memory layer: the
// pieces that let an engine treat the complete condition of an in-flight
// execution as a first-class value (vexec.Snapshot, the repository's one
// checkpoint/restore stack). Two mechanisms live here:
//
//   - CellState / StateCell: every register type can capture and restore its
//     contents (plus a write-version), so a checkpointing engine keeps the
//     pre-image of each register a grant writes and loads it back instead
//     of re-executing the schedule prefix.
//
//   - The per-process read log on Proc: for the deterministic bodies this
//     repository runs, a process's local state is a pure function of the
//     sequence of values it has read, so the log's running hash names that
//     state for state hashing, and the log itself makes the state restorable
//     by catch-up: the process re-runs from its start consuming logged reads
//     (and suppressing writes — memory is already restored) until it has
//     retaken its step count. The catch-up is pure local computation, so
//     restoring does not re-execute any part of the interleaving. The frame
//     engine restores by copy (RestoreState) where a frame can be saved, and
//     by this catch-up otherwise.

// CellState is one register's captured contents: the scalar word of a Reg or
// the pointer of a Ref, plus the cell's write-version and (for Refs) the
// write stamp identifying the pointed-to value instance. It is produced by
// StateInto and only meaningful to LoadState on the same cell. Holding the
// Ref pointer as a live reference (not raw bits) keeps the pointed-to
// snapshot value reachable for the garbage collector while a checkpoint that
// needs it is alive.
type CellState struct {
	word  int64
	ref   any
	ver   uint64
	stamp uint64
}

// Version returns the captured write-version.
func (s CellState) Version() uint64 { return s.ver }

// Word returns the captured scalar word (Reg cells; 0 for Ref cells).
func (s CellState) Word() int64 { return s.word }

// StateCell is implemented by every register type (*Reg, *Ref[T]): the
// capture/restore/hash surface a checkpointing scheduler drives through the
// register identities it observes in Intents.
type StateCell interface {
	// StateInto captures the current contents and version.
	StateInto(s *CellState)
	// LoadState restores a capture previously taken from this same cell.
	LoadState(s CellState)
	// StateWord returns a word identifying the current contents for state
	// hashing: the value itself for a Reg, the never-reused write stamp of
	// the held value for a Ref (see refStamps). Ref words are canonical
	// within one process lifetime only — the scope in which the restore
	// tests compare a restored state's hash with the replayed one's.
	StateWord() uint64
}

// Compile-time checks that both register types are capturable.
var (
	_ StateCell = (*Reg)(nil)
	_ StateCell = (*Ref[int])(nil)
)

// readRec is one logged read: the scalar word of a Reg read, or the boxed
// pointer of a Ref read. Boxing a pointer into an interface does not
// allocate, and it keeps the pointed-to value GC-reachable for as long as
// the log entry may be replayed.
type readRec struct {
	word  int64
	ref   any
	isRef bool
}

// replayState is the catch-up cursor armed by Proc.LoadState: the process
// consumes its own read log locally (no memory access) until it has retaken
// target steps, then crashes (if the capture recorded a crashed process) or
// posts its next access as the captured process had.
type replayState struct {
	active bool
	crash  bool  // raise Crash when the target is reached
	target int64 // local steps at the captured point
	reads  int   // read-log length at the captured point
	cur    int   // next log index to consume
}

// ProcState is the captured execution position of one process: its local
// step count, how much of its read log those steps produced, the running
// hash of that read history, and whether it had been crash-injected. The
// read log itself stays on the Proc (snapshots are prefix watermarks into
// it), so a ProcState is O(1).
type ProcState struct {
	Steps    int64
	Reads    int
	ReadHash [2]uint64
	Crashed  bool

	// Crash-recovery incarnation position (zero under the default model): the
	// read-log index and cumulative step count at which the current
	// incarnation began, and the restart count. Catch-up replay of a restarted
	// process re-runs the body from scratch consuming reads from IncBase on.
	IncBase   int
	BaseSteps int64
	Restarts  int
}

// EnableReadLog turns on read recording: every subsequent counted read
// appends its value to the process's log and folds it into the read-history
// hash. It must be enabled before the process takes any steps and is the
// prerequisite for StateInto/LoadState. Recording costs an amortized slice
// append per read, so free-running benchmarks leave it off.
func (p *Proc) EnableReadLog() {
	if p.steps != 0 {
		panic("shmem: EnableReadLog after steps were taken")
	}
	p.recording = true
}

// StateInto captures the process's execution position. The engine calls it
// only at a decision point (the process pending, crashed, or finished), so
// the fields are stable.
func (p *Proc) StateInto(s *ProcState) {
	if !p.recording {
		panic("shmem: Proc.StateInto without EnableReadLog")
	}
	s.Steps = p.steps
	s.Reads = len(p.readLog)
	s.ReadHash = p.readHash
	s.IncBase = p.incBase
	s.BaseSteps = p.baseSteps
	s.Restarts = p.restarts
}

// LoadState arms the process handle for catch-up replay of a captured
// position: the caller resets shared memory to the capture and re-runs the
// process from its start, and the handle consumes its logged reads
// (suppressing writes) until it has retaken s.Steps steps. Reaching the
// target, the process crashes (if s.Crashed) or goes on exactly as the
// captured process was: posting its next intent. The log suffix beyond
// s.Reads belongs to an abandoned continuation and is discarded.
func (p *Proc) LoadState(s ProcState) {
	if !p.recording {
		panic("shmem: Proc.LoadState without EnableReadLog")
	}
	p.steps = s.BaseSteps
	p.readLog = p.readLog[:s.Reads]
	p.readHash = s.ReadHash
	p.incBase = s.IncBase
	p.baseSteps = s.BaseSteps
	p.restarts = s.Restarts
	p.staleArm = false
	// Replay covers the current incarnation only: the re-rooted process re-runs
	// from scratch (exactly what a restarted process does) consuming reads
	// from the incarnation base until it has retaken the captured cumulative
	// step count. Under the default model IncBase and BaseSteps are zero and
	// this is the original whole-history catch-up.
	p.rp = replayState{active: true, crash: s.Crashed, target: s.Steps, reads: s.Reads, cur: s.IncBase}
}

// RestoreState puts the handle straight back at a captured position, with
// no catch-up: the caller restores the body's local state by copy (a frame
// engine's saved frames), so there is nothing to replay. The handle ends
// exactly where LoadState's replay would leave it once caught up: same step
// count, read-log prefix, read hash and incarnation bookkeeping.
func (p *Proc) RestoreState(s ProcState) {
	if !p.recording {
		panic("shmem: Proc.RestoreState without EnableReadLog")
	}
	p.steps = s.Steps
	p.readLog = p.readLog[:s.Reads]
	p.readHash = s.ReadHash
	p.incBase = s.IncBase
	p.baseSteps = s.BaseSteps
	p.restarts = s.Restarts
	p.staleArm = false
	p.rp = replayState{}
}

// ReadHash returns the running hash of the process's read history — the
// canonical fingerprint of its local state, since a deterministic body's
// stack is a pure function of the values it has read. Two channels with
// independent fold constants keep the collision probability of the restore
// tests' hash comparisons negligible.
func (p *Proc) ReadHash() [2]uint64 { return p.readHash }

// ReadLogLen returns the current read-log length (harness/assertion use).
func (p *Proc) ReadLogLen() int { return len(p.readLog) }

// ReadWord returns the i-th logged read as (scalar word, isRef). Ref reads
// report (0, true): their pointer values are process-local identities with
// no canonical cross-engine form. Harness use (equivalence tests).
func (p *Proc) ReadWord(i int) (int64, bool) {
	r := p.readLog[i]
	return r.word, r.isRef
}

// foldRead mixes one read into the two read-history hash channels.
func (p *Proc) foldRead(word uint64) {
	p.readHash[0] = mix64(p.readHash[0] ^ word)
	p.readHash[1] = mix64(p.readHash[1] + 0x9e3779b97f4a7c15 ^ word)
}

// record appends a read to the log and folds the hash channels.
func (p *Proc) record(rec readRec, word uint64) {
	p.readLog = append(p.readLog, rec)
	p.foldRead(word)
}

// replayRead consumes the next logged read during catch-up. The caller has
// already established p.rp.active && p.steps < p.rp.target.
func (p *Proc) replayRead() readRec {
	if p.rp.cur >= p.rp.reads {
		panic("shmem: replay read past the captured log (non-deterministic body?)")
	}
	rec := p.readLog[p.rp.cur]
	p.rp.cur++
	p.steps++
	return rec
}

// exitReplay leaves catch-up mode, verifying the process consumed exactly
// the captured read history — the cheap online check that the body really is
// deterministic.
func (p *Proc) exitReplay() {
	if p.rp.cur != p.rp.reads {
		panic("shmem: replay consumed a different read history (non-deterministic body?)")
	}
	crash := p.rp.crash
	p.rp = replayState{}
	if crash {
		panic(Crash{})
	}
}

// mix64 is the SplitMix64 finalizer, inlined here so shmem (the bottom of
// the dependency order) does not import xrand.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// refStamps issues the identity words of Ref contents for state hashing:
// every store to any Ref takes the next stamp, and the counter is never
// rewound (a Restore puts back the captured value's original stamp, not the
// counter). Stamps therefore identify a written value *instance* uniquely
// for the process lifetime — unlike pointer addresses, which the allocator
// reuses once an abandoned branch's snapshot values are collected, and
// which would let two genuinely different states hash alike when a test
// compares hashes taken far apart in a walk. Distinct contents always carry
// distinct stamps, so stamp hashing can only tell equal states apart, never
// alias two different ones.
var refStamps atomic.Uint64
