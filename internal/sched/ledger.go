package sched

import (
	"fmt"
	"runtime/debug"

	"repro/internal/shmem"
)

// Phase is where a process is in its lifecycle.
type Phase uint8

const (
	PhaseRunning  Phase = iota // computing locally (or not yet started)
	PhasePending               // blocked, intent posted, awaiting grant
	PhaseDone                  // finished normally
	PhaseCrashed               // crash-injected
	PhasePanicked              // failed with an unexpected panic
)

// String names the phase for diagnostics (notably the non-pending panics,
// where "done" versus "crashed" tells the policy author what went wrong).
func (ph Phase) String() string {
	switch ph {
	case PhaseRunning:
		return "running"
	case PhasePending:
		return "pending"
	case PhaseDone:
		return "done"
	case PhaseCrashed:
		return "crashed"
	case PhasePanicked:
		return "panicked"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(ph))
	}
}

// Ledger is the decision bookkeeping of one driven execution. Both engines
// embed one — the goroutine Controller and the vectorized vexec.Exec — so
// the read side of Engine (pending words, intents, phases, fingerprint,
// trace, fault model, stale choices, restart budget, Result) has a single
// implementation, and every decision is checked, folded, traced and applied
// to the stale windows by the same code on either engine. The engines differ
// only in how a granted process runs its local steps up to its next register
// access: the Controller hands off to the process's goroutine, vexec.Exec
// advances its frame automaton.
//
// The engine that embeds a ledger keeps it current through the engine-side
// methods: NewLedger, Post, RecordGrant, Exit, RecordRestart, CheckRelaunch,
// Revive, ResetGateless, IntentSlot, and the Mark/Rewind pair behind vexec's
// checkpoints. Policies, plans and search strategies never call them; they
// read the ledger and decide through the engine.
type Ledger struct {
	n      int
	procs  []*shmem.Proc
	phase  []Phase
	intent []shmem.Intent // each process's posted operation (valid while pending)
	err    []error

	pbits    []uint64 // pending bitmap: bit pid set ⟺ phase[pid] == PhasePending
	rbits    []uint64 // the pending pids whose posted intent is an OpRead
	npending int

	fp     uint64 // incremental schedule fingerprint (see Fingerprint)
	grants int64  // scheduling decisions executed (see Grants)

	tracing  bool  // record grants into traceBuf (see EnableTrace)
	traceBuf Trace // the recorded grant sequence

	// Fault-model capability knob (see shmem.Model and SetModel). The zero
	// model is the paper's: atomic registers, fail-stop crashes. All of the
	// bookkeeping below is dead when the model is atomic — the grant hot path
	// pays one predictable branch.
	model    shmem.Model
	restarts int       // restarts issued so far (recovery budget accounting)
	staleWin [][]int64 // per-pid stale windows of pending reads (weak regs only)
	staleBuf []int64   // scratch for StaleVals/StaleCount

	// eng is the engine this ledger is embedded in, which Run and
	// ApplyTrace drive; engineGrant is its full grant (RecordGrant plus
	// running the process), the route Crash, Abort and StepStale take into
	// it.
	eng         Engine
	engineGrant func(pid int, crash bool, stale int)
}

// NewLedger returns the bookkeeping of an n-process execution on eng, the
// engine that embeds it. names[i] is process i's original name (nil assigns
// pid+1); process i reaches shared memory through gate(i), or gatelessly
// when gate is nil. grant is the engine's full grant, which Crash, Abort and
// StepStale call.
func NewLedger(n int, names []int64, gate func(pid int) shmem.Gate, eng Engine, grant func(pid int, crash bool, stale int)) Ledger {
	if n <= 0 {
		panic("sched: an engine needs at least one process")
	}
	checkNames(n, names)
	l := Ledger{
		n:           n,
		procs:       make([]*shmem.Proc, n),
		phase:       make([]Phase, n),
		intent:      make([]shmem.Intent, n),
		err:         make([]error, n),
		pbits:       make([]uint64, (n+63)/64),
		rbits:       make([]uint64, (n+63)/64),
		eng:         eng,
		engineGrant: grant,
	}
	for i := range l.procs {
		var g shmem.Gate
		if gate != nil {
			g = gate(i)
		}
		l.procs[i] = shmem.NewProc(i, nameOf(names, i), g)
	}
	return l
}

func checkNames(n int, names []int64) {
	if names != nil && len(names) != n {
		panic("sched: names length must equal n")
	}
}

// nameOf is process pid's original name: names[pid], or pid+1 when names is
// nil.
func nameOf(names []int64, pid int) int64 {
	if names != nil {
		return names[pid]
	}
	return int64(pid + 1)
}

// ResetGateless rewinds the ledger in place to NewLedger(n, names, nil, ...)'s
// state, reusing every allocation: the vectorized engine's Reset. Its
// processes are gateless again and every capability knob (model, tracing)
// comes back down.
func (l *Ledger) ResetGateless(names []int64) {
	checkNames(l.n, names)
	l.fp, l.grants, l.restarts, l.npending = 0, 0, 0, 0
	l.model = shmem.Model{}
	l.tracing = false
	l.traceBuf = l.traceBuf[:0]
	clear(l.pbits)
	clear(l.rbits)
	for i := 0; i < l.n; i++ {
		l.procs[i].Reset(i, nameOf(names, i), nil)
		l.phase[i] = PhaseRunning
		l.err[i] = nil
		l.intent[i] = shmem.Intent{}
		if l.staleWin != nil {
			l.staleWin[i] = l.staleWin[i][:0]
		}
	}
}

// IntentSlot returns the cell holding pid's posted operation, for an engine
// whose processes write their intent in place before calling Post.
func (l *Ledger) IntentSlot(pid int) *shmem.Intent { return &l.intent[pid] }

// Post marks pid pending on the intent in its slot: the pending bit, the
// reader bit for an OpRead, and the count. The reader bit is set without a
// branch: reads and writes interleave unpredictably.
func (l *Ledger) Post(pid int) {
	var read uint64
	if l.intent[pid].Kind == shmem.OpRead {
		read = 1
	}
	l.phase[pid] = PhasePending
	l.pbits[uint(pid)>>6] |= 1 << (uint(pid) & 63)
	l.rbits[uint(pid)>>6] |= read << (uint(pid) & 63)
	l.npending++
}

// RecordGrant is the half of a grant both engines share: it checks that pid
// is a pending process, folds the decision into the fingerprint, updates the
// stale windows under weak registers, appends the trace event and takes pid
// out of the pending set. stale > 0 marks a weak-register read returning
// stale choice stale-1. The engine then runs pid's step, or discards it when
// crash is set.
func (l *Ledger) RecordGrant(pid int, crash bool, stale int) { l.record(pid, crash, stale, true) }

// record is RecordGrant's body, behind a one-call wrapper so that the
// wrapper inlines into vexec's grant. The Controller passes unpend false and
// takes pid out of the pending set itself, under its mutex.
func (l *Ledger) record(pid int, crash bool, stale int, unpend bool) {
	l.checkPid("grant to", pid)
	if l.phase[pid] != PhasePending {
		panic(fmt.Sprintf("sched: grant to non-pending process %d (phase %s): the policy returned a pid with no posted intent", pid, l.phase[pid]))
	}
	// Fold the decision into the schedule fingerprint before executing it:
	// (pid, posted operation kind, crash bit, staleness choice) per grant
	// uniquely identifies the interleaving for a fixed body.
	l.fp = FoldGrant(l.fp, pid, l.intent[pid].Kind, crash, stale, false)
	l.grants++
	if l.model.Regs != shmem.RegAtomic {
		l.noteWeakGrant(pid, crash)
	}
	if l.tracing {
		in := l.intent[pid]
		l.traceBuf = append(l.traceBuf, TraceEvent{Pid: pid, Op: in.Kind, Reg: in.Reg, Crash: crash, Stale: stale})
	}
	if unpend {
		l.unpend(pid)
	}
}

// checkPid panics, naming the operation, the pid and the range, when pid is
// not one of the engine's processes. Every decision, and every query about a
// pending process's operation (Intent, StaleVals, StaleCount), checks its pid
// here before indexing. The phase queries (Phase, Done, Crashed, CanRestart)
// index directly, so they stay inlinable in the drivers' per-grant loops.
func (l *Ledger) checkPid(op string, pid int) {
	if uint(pid) >= uint(l.n) {
		pidOutOfRange(op, pid, l.n)
	}
}

// pidOutOfRange is checkPid's cold path, kept out of line so checkPid
// inlines into the grant.
//
//go:noinline
func pidOutOfRange(op string, pid, n int) {
	panic(fmt.Sprintf("sched: %s process %d outside [0..%d)", op, pid, n))
}

func (l *Ledger) unpend(pid int) {
	l.phase[pid] = PhaseRunning
	l.pbits[uint(pid)>>6] &^= 1 << (uint(pid) & 63)
	l.rbits[uint(pid)>>6] &^= 1 << (uint(pid) & 63)
	l.npending--
}

// Exit records how pid's run ended, given what its runner recovered: nil for
// a normal finish, shmem.Crash for a crash, anything else for an unexpected
// panic, which becomes the process's error in Result.
func (l *Ledger) Exit(pid int, r any) {
	switch r.(type) {
	case nil:
		l.phase[pid] = PhaseDone
	case shmem.Crash:
		l.phase[pid] = PhaseCrashed
	default:
		l.phase[pid] = PhasePanicked
		l.err[pid] = fmt.Errorf("sched: process %d panicked: %v\n%s", pid, r, debug.Stack())
	}
}

// RecordRestart is the shared half of Restart: it checks the recovery model,
// that pid crashed and the restart budget, folds the restart into the
// fingerprint and trace, charges the budget and begins pid's next
// incarnation. The engine then respawns pid and calls Revive.
func (l *Ledger) RecordRestart(pid int) {
	if !l.model.Recovery {
		panic("sched: Restart without a recovery model (SetModel)")
	}
	l.checkPid("Restart of", pid)
	if l.phase[pid] != PhaseCrashed {
		panic(fmt.Sprintf("sched: Restart(%d) of non-crashed process (phase %s)", pid, l.phase[pid]))
	}
	if l.restarts >= l.model.MaxRestarts {
		panic(fmt.Sprintf("sched: Restart(%d) beyond the model's budget of %d", pid, l.model.MaxRestarts))
	}
	l.fp = FoldGrant(l.fp, pid, 0, false, 0, true)
	l.grants++
	l.restarts++
	if l.tracing {
		l.traceBuf = append(l.traceBuf, TraceEvent{Pid: pid, Restart: true})
	}
	l.procs[pid].BeginIncarnation()
}

// CheckRelaunch is the precondition of an engine's Relaunch: pid is one of
// the engine's processes and has finished or crashed. A relaunch is a
// harness action, not a decision, so the ledger records nothing for it: no
// fingerprint fold, no trace event, no restart budget. The engine then
// respawns pid from its root and calls Revive.
func (l *Ledger) CheckRelaunch(pid int) {
	l.checkPid("Relaunch of", pid)
	if ph := l.phase[pid]; ph != PhaseDone && ph != PhaseCrashed {
		panic(fmt.Sprintf("sched: Relaunch(%d) of live process (phase %s)", pid, ph))
	}
}

// Revive puts a finished or crashed pid back to running with no error: a
// restart's, or a relaunched lane's, fresh incarnation.
func (l *Ledger) Revive(pid int) {
	l.phase[pid] = PhaseRunning
	l.err[pid] = nil
}

// LedgerMark is a ledger's rewindable state at a decision point (see Mark).
type LedgerMark struct {
	fp       uint64
	grants   int64
	restarts int
	traceLen int
	phase    []Phase
	stale    [][]int64 // pending reads' stale windows (weak registers only)
}

// TraceLen is the number of trace events recorded at the mark.
func (m *LedgerMark) TraceLen() int { return m.traceLen }

// Phase is pid's phase at the mark.
func (m *LedgerMark) Phase(pid int) Phase { return m.phase[pid] }

// Mark saves what Rewind restores into m, reusing m's buffers: fingerprint,
// grant and restart counts, trace length, phases and stale windows.
func (l *Ledger) Mark(m *LedgerMark) {
	m.fp, m.grants, m.restarts, m.traceLen = l.fp, l.grants, l.restarts, len(l.traceBuf)
	m.phase = append(m.phase[:0], l.phase...)
	if l.model.Regs != shmem.RegAtomic {
		m.stale = grow(m.stale, l.n)
		for pid, w := range l.staleWin {
			m.stale[pid] = append(m.stale[pid][:0], w...)
		}
	}
}

// Rewind puts the ledger back at a mark taken earlier in the same execution:
// the recorded trace is truncated to the mark's length, the pending set is
// rebuilt from the marked phases over the intents now in the slots, and
// every process not marked panicked loses its error. The engine restores
// the intents, processes and registers themselves first.
func (l *Ledger) Rewind(m *LedgerMark) {
	l.traceBuf = l.traceBuf[:m.traceLen]
	l.fp, l.grants, l.restarts = m.fp, m.grants, m.restarts
	if l.model.Regs != shmem.RegAtomic {
		for pid := range l.staleWin {
			l.staleWin[pid] = append(l.staleWin[pid][:0], m.stale[pid]...)
		}
	}
	clear(l.pbits)
	clear(l.rbits)
	l.npending = 0
	for pid, ph := range m.phase {
		l.phase[pid] = ph
		if ph != PhasePanicked {
			l.err[pid] = nil
		}
		if ph == PhasePending {
			l.Post(pid)
		}
	}
}

// grow resizes buf to length n, reusing its backing array when it is big
// enough; new or recycled elements are overwritten by the caller.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// N returns the number of processes.
func (l *Ledger) N() int { return l.n }

// PendingCount returns the number of processes blocked on a shared-memory
// operation.
func (l *Ledger) PendingCount() int { return l.npending }

// Pending returns the live pending bitmap (see Engine.Pending). On the
// Controller the processes write it under its mutex while they post; the
// driver reads it at decision points, once every process has blocked or
// finished.
func (l *Ledger) Pending() []uint64 { return l.pbits }

// PendingReads returns the live bitmap of pending readers (see
// Engine.PendingReads).
func (l *Ledger) PendingReads() []uint64 { return l.rbits }

// Intent returns the posted next operation of a pending process.
func (l *Ledger) Intent(pid int) shmem.Intent {
	l.checkPid("Intent of", pid)
	if l.phase[pid] != PhasePending {
		panic(fmt.Sprintf("sched: Intent(%d) of non-pending process (phase %s)", pid, l.phase[pid]))
	}
	return l.intent[pid]
}

// Phase returns pid's lifecycle phase.
func (l *Ledger) Phase(pid int) Phase { return l.phase[pid] }

// Proc returns the process handle (for step counts and identity).
func (l *Ledger) Proc(pid int) *shmem.Proc { return l.procs[pid] }

// Done reports whether the process finished normally.
func (l *Ledger) Done(pid int) bool { return l.phase[pid] == PhaseDone }

// Crashed reports whether the process was crash-injected.
func (l *Ledger) Crashed(pid int) bool { return l.phase[pid] == PhaseCrashed }

// Fingerprint returns a hash identifying the schedule driven so far: every
// grant, crash and restart folds through FoldGrant into it, so for a fixed
// body two executions share a fingerprint exactly when the adversary made
// the same decisions in the same order, on either engine. Explorers use it
// to count distinct interleavings actually exercised.
func (l *Ledger) Fingerprint() uint64 { return l.fp }

// Grants returns the number of scheduling decisions (grants, crashes and
// restarts) executed so far.
func (l *Ledger) Grants() int64 { return l.grants }

// Crash terminates a pending process before its posted operation executes.
// The operation is not performed — the paper's crash model.
func (l *Ledger) Crash(pid int) {
	l.checkPid("Crash of", pid)
	if l.phase[pid] != PhasePending {
		panic(fmt.Sprintf("sched: Crash(%d) of non-pending process (phase %s)", pid, l.phase[pid]))
	}
	l.engineGrant(pid, true, 0)
}

// Abort crashes every pending process, releasing all goroutines. It is the
// cleanup path for partially driven executions.
func (l *Ledger) Abort() {
	for {
		pid := NextBit(l.pbits, -1)
		if pid < 0 {
			return
		}
		l.Crash(pid)
	}
}

// SetModel opens the fault-model capability knob (see shmem.Model). It must
// be called before any grant so the model covers the whole execution. The
// zero model is the default and needs no call; setting it again is a no-op.
// A recovery model with MaxRestarts == 0 is normalized to a budget of n.
func (l *Ledger) SetModel(m shmem.Model) {
	if l.grants != 0 {
		panic("sched: SetModel after grants were issued")
	}
	if m.Recovery && m.MaxRestarts == 0 {
		m.MaxRestarts = l.n
	}
	l.model = m
	if m.Regs != shmem.RegAtomic && l.staleWin == nil {
		l.staleWin = make([][]int64, l.n)
	}
}

// Model returns the execution's fault model (the zero value by default).
func (l *Ledger) Model() shmem.Model { return l.model }

// staleCap bounds a pending read's stale window so weak-register search trees
// stay finite: at most this many distinct overwritten values are retained as
// stale choices (oldest first — the window fills front to back).
const staleCap = 8

// noteWeakGrant maintains the stale windows under weak register semantics,
// driver-side, at every grant: a write grant appends the register's
// pre-overwrite value to the window of every other pending read targeting the
// same scalar register (those reads overlap the write), and the granted
// process's own window closes — its posted operation executes (or is crashed
// away) now. Values already in the window are not duplicated; duplicate
// choices would only multiply equivalent branches.
func (l *Ledger) noteWeakGrant(pid int, crash bool) {
	in := l.intent[pid]
	if !crash && in.Kind == shmem.OpWrite {
		if r, ok := in.Reg.(*shmem.Reg); ok {
			v := r.Peek()
			for q := NextBit(l.rbits, -1); q >= 0; q = NextBit(l.rbits, q) {
				if q == pid || l.intent[q].Reg != in.Reg {
					continue
				}
				w := l.staleWin[q]
				if len(w) < staleCap && !containsI64(w, v) {
					l.staleWin[q] = append(w, v)
				}
			}
		}
	}
	l.staleWin[pid] = l.staleWin[pid][:0]
}

func containsI64(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// StaleVals appends to buf[:0] the stale values the adversary may have pid's
// pending scalar read return instead of the current contents, and returns the
// slice. It is empty unless the model has weak registers, pid is pending on a
// Reg read, and the read overlaps at least one already-granted write. Under
// regular semantics the choices are the pre-overwrite values the register
// held while the read was pending; safe semantics add junk (shmem.Null) as a
// final choice when the read overlapped any write. Values equal to the
// current contents are filtered — returning them is the fresh read.
func (l *Ledger) StaleVals(pid int, buf []int64) []int64 {
	l.checkPid("StaleVals of", pid)
	return l.staleVals(pid, buf)
}

func (l *Ledger) staleVals(pid int, buf []int64) []int64 {
	buf = buf[:0]
	if l.model.Regs == shmem.RegAtomic || l.phase[pid] != PhasePending {
		return buf
	}
	in := l.intent[pid]
	if in.Kind != shmem.OpRead {
		return buf
	}
	r, ok := in.Reg.(*shmem.Reg)
	if !ok {
		return buf // Ref registers stay atomic under every model
	}
	w := l.staleWin[pid]
	if len(w) == 0 {
		return buf
	}
	cur := r.Peek()
	for _, v := range w {
		if v != cur {
			buf = append(buf, v)
		}
	}
	if l.model.Regs == shmem.RegSafe && cur != shmem.Null && !containsI64(buf, shmem.Null) {
		buf = append(buf, shmem.Null)
	}
	return buf
}

// StaleCount returns the number of stale alternatives for pid's pending read
// (0 under the atomic model, for writes, and for non-overlapped reads). A
// search strategy branches the grant of pid StaleCount+1 ways: the fresh read
// plus one StepStale per index.
func (l *Ledger) StaleCount(pid int) int {
	l.checkPid("StaleCount of", pid)
	l.staleBuf = l.staleVals(pid, l.staleBuf)
	return len(l.staleBuf)
}

// StepStale grants pid's pending scalar read one step returning stale choice
// idx (an index into StaleVals) instead of the current register contents.
// The decision folds into the fingerprint and trace distinctly from a fresh
// Step, so schedules differing only in staleness choices stay distinct.
func (l *Ledger) StepStale(pid, idx int) {
	l.checkPid("StepStale of", pid)
	l.staleBuf = l.staleVals(pid, l.staleBuf)
	if idx < 0 || idx >= len(l.staleBuf) {
		panic(fmt.Sprintf("sched: StepStale(%d, %d) with %d stale choices", pid, idx, len(l.staleBuf)))
	}
	l.procs[pid].ArmStale(l.staleBuf[idx])
	l.engineGrant(pid, false, idx+1)
}

// CanRestart reports whether Restart(pid) is currently legal: recovery model,
// pid crashed, budget remaining.
func (l *Ledger) CanRestart(pid int) bool {
	return l.model.Recovery && l.phase[pid] == PhaseCrashed && l.restarts < l.model.MaxRestarts
}

// Restarts returns the number of restarts issued so far.
func (l *Ledger) Restarts() int { return l.restarts }

// EnableTrace turns on grant recording: every subsequent grant, crash or
// restart appends a TraceEvent, retrievable via Trace. Any previously
// recorded events are discarded. Recording costs an amortized slice append
// per grant, so the zero-allocation benchmarks leave it off; search
// strategies always enable it.
func (l *Ledger) EnableTrace() {
	l.tracing = true
	l.traceBuf = l.traceBuf[:0]
}

// Trace returns a copy of the grant sequence recorded since EnableTrace.
func (l *Ledger) Trace() Trace {
	return append(Trace(nil), l.traceBuf...)
}

// TraceInto overwrites buf (reusing its storage) with the recorded grant
// sequence and returns it — the allocation-free form of Trace for drive
// loops that consume each execution's trace before the next one overwrites
// the buffer.
func (l *Ledger) TraceInto(buf Trace) Trace {
	return append(buf[:0], l.traceBuf...)
}

// TraceLen returns the number of grant events currently recorded — the
// event cursor the source-DPOR happens-before layer aligns its suffix
// watermarks against. Rewind truncates the recorded trace to the mark's
// length, so after a vexec Restore TraceLen reports the checkpoint-time
// length.
func (l *Ledger) TraceLen() int { return len(l.traceBuf) }

// Run drives the engine with policy (and optional crash plan) until every
// process has finished or crashed, then returns the execution summary:
// DriveEngine over the engine, the decision loop both engines share.
func (l *Ledger) Run(policy Policy, plan CrashPlan) Result {
	return DriveEngine(l.eng, policy, plan)
}

// ApplyTrace re-applies a recorded grant sequence to a freshly constructed
// engine, reconstructing the execution state at the end of the prefix:
// ApplyTraceTo over the engine, the replay loop both engines share. On an
// error the engine is left mid-execution; callers should Abort it.
func (l *Ledger) ApplyTrace(prefix Trace) error {
	return ApplyTraceTo(l.eng, prefix)
}

// Result snapshots the execution summary at the current decision point. For
// a finished execution it equals what Run would have returned; search
// strategies that drive an engine grant by grant use it to close out an
// execution. It allocates a fresh summary; see ResultInto for the reusing
// form.
func (l *Ledger) Result() Result {
	var res Result
	l.ResultInto(&res)
	return res
}

// ResultInto overwrites *res with the summary Result returns, reusing the
// backing arrays of res.Steps and res.Crashed, and of res.Restarts when this
// execution restarted a process (Restarts stays nil when none did). The
// stateful search drive keeps one Result for a whole walk this way.
func (l *Ledger) ResultInto(res *Result) {
	res.Steps = grow(res.Steps, l.n)
	res.Crashed = grow(res.Crashed, l.n)
	if l.restarts > 0 {
		res.Restarts = grow(res.Restarts, l.n)
	} else {
		res.Restarts = nil
	}
	res.Err, res.Fingerprint = nil, l.fp
	for i := 0; i < l.n; i++ {
		res.Steps[i] = l.procs[i].Steps()
		res.Crashed[i] = l.phase[i] == PhaseCrashed
		if res.Restarts != nil {
			res.Restarts[i] = l.procs[i].Restarts()
		}
		if l.err[i] != nil && res.Err == nil {
			res.Err = l.err[i]
		}
	}
}
