package vexec

import (
	"fmt"
	"math/bits"
	"runtime/debug"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// Lane phases.
const (
	phaseRunning  uint8 = iota // advancing frames (transient within a grant)
	phasePending               // intent posted, awaiting grant
	phaseDone                  // root frame finished
	phaseCrashed               // crash-injected
	phasePanicked              // a frame panicked unexpectedly
)

func phaseName(ph uint8) string {
	switch ph {
	case phaseRunning:
		return "running"
	case phasePending:
		return "pending"
	case phaseDone:
		return "done"
	case phaseCrashed:
		return "crashed"
	case phasePanicked:
		return "panicked"
	default:
		return fmt.Sprintf("phase(%d)", ph)
	}
}

// Exec drives n frame-automaton lanes in lock step — the vectorized
// implementation of sched.Engine. Every lane owns a gateless shmem.Proc
// (accesses execute immediately and charge steps locally; no goroutine, no
// gate), so a grant is: fold the decision, invoke the lane's top frame until
// it posts its next intent, done. Exactly one goroutine may drive an Exec at
// a time, mirroring Controller's rule.
type Exec struct {
	n     int
	procs []*shmem.Proc
	ms    []M
	phase []uint8
	err   []error
	retI  []int64 // root-frame results, by pid (valid when Done)
	retB  []bool

	pbits    []uint64 // pending bitmap: bit pid set ⟺ phase[pid] == phasePending
	npending int
	fp       uint64
	grants   int64
	root     func(p *shmem.Proc) Frame // retained for Restart's respawn
	// laneRoot overrides root per lane once Relaunch has re-rooted it — the
	// long-lived driver's session multiplexing. nil entries fall back to root.
	laneRoot []func(p *shmem.Proc) Frame

	tracing  bool
	traceBuf sched.Trace

	// Fault-model bookkeeping, mirroring Controller's field for field. The
	// zero model costs one predictable branch per grant.
	model    shmem.Model
	restarts int
	staleWin [][]int64
	staleBuf []int64

	st       stateMirror
	snapFree []*Snapshot // released captures awaiting reuse (see ReleaseState)
}

var _ sched.Engine = (*Exec)(nil)

// New builds an engine of n lanes, each rooted at root(proc), and advances
// every lane to its first decision point (first intent posted, or already
// finished). names[i] is process i's original name; nil assigns pid+1 —
// NewController's convention exactly.
func New(n int, names []int64, root func(p *shmem.Proc) Frame) *Exec {
	if n <= 0 {
		panic("vexec: engine needs at least one process")
	}
	if names != nil && len(names) != n {
		panic("vexec: names length must equal n")
	}
	e := &Exec{
		n:     n,
		procs: make([]*shmem.Proc, n),
		ms:    make([]M, n),
		phase: make([]uint8, n),
		err:   make([]error, n),
		retI:  make([]int64, n),
		retB:  make([]bool, n),
		pbits: make([]uint64, (n+63)/64),
		root:  root,
	}
	for i := 0; i < n; i++ {
		name := int64(i + 1)
		if names != nil {
			name = names[i]
		}
		e.procs[i] = shmem.NewProc(i, name, nil)
	}
	for i := 0; i < n; i++ {
		e.spawn(i)
	}
	return e
}

// Reset rewinds the engine in place to the state New(n, names, root) would
// return, reusing every allocation — lanes, machines, bitmaps, stale
// windows. It is the batched fan-out's construction amortizer: a worker
// recycles one engine across thousands of independent runs (vexec.RunBatch)
// instead of reallocating the lane set per run. Capability knobs (model,
// tracing, state capture) come back down; re-arm them after Reset as after
// New.
func (e *Exec) Reset(names []int64, root func(p *shmem.Proc) Frame) {
	if names != nil && len(names) != e.n {
		panic("vexec: names length must equal n")
	}
	e.root = root
	e.laneRoot = nil
	e.fp, e.grants, e.restarts = 0, 0, 0
	e.npending = 0
	e.model = shmem.Model{}
	e.tracing = false
	e.traceBuf = e.traceBuf[:0]
	e.st = stateMirror{clock: e.st.clock} // serials stay never-reused across resets
	for i := range e.pbits {
		e.pbits[i] = 0
	}
	for i := 0; i < e.n; i++ {
		name := int64(i + 1)
		if names != nil {
			name = names[i]
		}
		e.procs[i].Reset(i, name, nil)
		e.phase[i] = phaseRunning
		e.err[i] = nil
		e.retI[i], e.retB[i] = 0, false
		e.ms[i].RetI, e.ms[i].RetB = 0, false
		e.ms[i].intent = shmem.Intent{}
		if e.staleWin != nil {
			e.staleWin[i] = e.staleWin[i][:0]
		}
	}
	for i := 0; i < e.n; i++ {
		e.spawn(i)
	}
}

// spawn (re)roots lane pid and advances it to its first decision point. The
// entry invocation performs no register access, so a fresh incarnation
// charges no steps until its first grant — as with a fresh goroutine.
func (e *Exec) spawn(pid int) {
	m := &e.ms[pid]
	for i := range m.stack {
		m.stack[i] = nil
	}
	root := e.root
	if e.laneRoot != nil && e.laneRoot[pid] != nil {
		root = e.laneRoot[pid]
	}
	m.stack = append(m.stack[:0], root(e.procs[pid]))
	e.advance(pid, 0)
}

// Relaunch re-roots a finished or crashed lane with a fresh root frame and
// advances it to its first decision point — the long-lived driver's lane
// recycling: one engine multiplexes a stream of sessions over a fixed lane
// set, so steady-state execution allocates nothing per session (the root
// builder can re-arm a retained frame). The lane's Proc identity, cumulative
// step count and register handles persist; a crashed lane is re-rooted as a
// fresh logical process on the same lane (its discarded intent stays
// discarded). The new root also becomes the lane's respawn target for
// Restart under a recovery model. Relaunch is a harness action, not a
// scheduling decision: it folds nothing into the fingerprint and records no
// trace event, so a snapshot could not describe the lane it re-roots; under
// EnableState it panics.
func (e *Exec) Relaunch(pid int, root func(p *shmem.Proc) Frame) {
	if pid < 0 || pid >= e.n {
		panic(fmt.Sprintf("vexec: Relaunch of process %d outside [0..%d)", pid, e.n))
	}
	if e.phase[pid] != phaseDone && e.phase[pid] != phaseCrashed {
		panic(fmt.Sprintf("vexec: Relaunch(%d) of live process (phase %s)", pid, phaseName(e.phase[pid])))
	}
	if e.st.enabled {
		panic("vexec: Relaunch under EnableState (relaunches are not replayable decisions)")
	}
	if e.laneRoot == nil {
		e.laneRoot = make([]func(p *shmem.Proc) Frame, e.n)
	}
	e.laneRoot[pid] = root
	e.phase[pid] = phaseRunning
	e.err[pid] = nil
	e.retI[pid], e.retB[pid] = 0, false
	e.ms[pid].RetI, e.ms[pid].RetB = 0, false
	e.ms[pid].intent = shmem.Intent{}
	e.spawn(pid)
}

// advance runs lane pid's frames until the lane posts an intent (pending),
// finishes, or fails. budget is the number of posted intents to auto-grant
// along the way — the StepN surplus; each auto-granted intent's access is
// performed by the immediately following frame invocation, exactly the
// gate-budget fast path of the goroutine engine. A lane that finishes with
// budget remaining simply discards it.
func (e *Exec) advance(pid, budget int) {
	m := &e.ms[pid]
	p := e.procs[pid]
	defer func() {
		if r := recover(); r != nil {
			for i := range m.stack {
				m.stack[i] = nil
			}
			m.stack = m.stack[:0]
			if _, ok := r.(shmem.Crash); ok {
				// Frames never raise shmem.Crash themselves (crashes are
				// engine decisions here), but an algorithm aborting with it
				// keeps the goroutine engine's meaning.
				e.phase[pid] = phaseCrashed
				return
			}
			e.phase[pid] = phasePanicked
			e.err[pid] = fmt.Errorf("vexec: process %d panicked: %v\n%s", pid, r, debug.Stack())
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
				e.phase[pid] = phaseDone
				e.retI[pid], e.retB[pid] = m.RetI, m.RetB
				return
			}
		case Yield:
			if budget > 0 {
				budget--
				continue
			}
			e.phase[pid] = phasePending
			e.pbits[uint(pid)>>6] |= 1 << (uint(pid) & 63)
			e.npending++
			return
		}
	}
}

// grant is the engine's single decision-execution path, mirroring
// Controller.grant bookkeeping step for step: fingerprint fold, stale-window
// maintenance, state capture, trace append — then, instead of a goroutine
// wakeup, a direct frame advance.
func (e *Exec) grant(pid, k int, crash bool, stale int) {
	if pid < 0 || pid >= e.n {
		panic(fmt.Sprintf("vexec: grant to process %d outside [0..%d)", pid, e.n))
	}
	if e.phase[pid] != phasePending {
		panic(fmt.Sprintf("vexec: grant to non-pending process %d (phase %s): the policy returned a pid with no posted intent", pid, phaseName(e.phase[pid])))
	}
	e.fp = sched.FoldGrant(e.fp, pid, k, e.ms[pid].intent.Kind, crash, stale, false)
	e.grants++
	if e.model.Regs != shmem.RegAtomic {
		e.noteWeakGrant(pid, crash)
	}
	if e.st.enabled {
		e.st.move(pid)
		e.stateBeforeGrant(pid, k, crash)
	}
	if e.tracing {
		in := e.ms[pid].intent
		e.traceBuf = append(e.traceBuf, sched.TraceEvent{Pid: pid, Op: in.Kind, Reg: in.Reg, K: k, Crash: crash, Stale: stale})
	}
	e.phase[pid] = phaseRunning
	e.pbits[uint(pid)>>6] &^= 1 << (uint(pid) & 63)
	e.npending--
	if crash {
		// The posted operation never executes and no step is charged — the
		// goroutine engine's crash unwinds inside the gate, before the access
		// and before the step increment. Discard the stack; registers are
		// untouched.
		m := &e.ms[pid]
		for i := range m.stack {
			m.stack[i] = nil
		}
		m.stack = m.stack[:0]
		e.phase[pid] = phaseCrashed
	} else {
		e.advance(pid, k-1)
	}
}

// Step grants one shared-memory operation to a pending process.
func (e *Exec) Step(pid int) { e.grant(pid, 1, false, 0) }

// StepN grants a run of k consecutive shared-memory operations with a single
// decision; surplus is discarded if the lane finishes early.
func (e *Exec) StepN(pid, k int) {
	if k < 1 {
		panic(fmt.Sprintf("vexec: StepN(%d, %d) needs k >= 1", pid, k))
	}
	if k > 1 && e.model.Regs != shmem.RegAtomic {
		panic("vexec: StepN batching is not allowed under weak register semantics (stale windows must see every decision)")
	}
	e.grant(pid, k, false, 0)
}

// Crash terminates a pending process before its posted operation executes.
func (e *Exec) Crash(pid int) {
	if e.phase[pid] != phasePending {
		panic(fmt.Sprintf("vexec: Crash(%d) of non-pending process (phase %s)", pid, phaseName(e.phase[pid])))
	}
	e.grant(pid, 1, true, 0)
}

// Abort crashes every pending process — cleanup for partially driven runs.
func (e *Exec) Abort() {
	for {
		pid := e.NextPending(-1)
		if pid < 0 {
			return
		}
		e.Crash(pid)
	}
}

// SetModel opens the fault-model capability knob before any grant, with
// Controller.SetModel's exact normalization (recovery budget 0 → n).
func (e *Exec) SetModel(m shmem.Model) {
	if e.grants != 0 {
		panic("vexec: SetModel after grants were issued")
	}
	if m.Recovery && m.MaxRestarts == 0 {
		m.MaxRestarts = e.n
	}
	e.model = m
	if m.Regs != shmem.RegAtomic && e.staleWin == nil {
		e.staleWin = make([][]int64, e.n)
	}
}

// Model returns the engine's fault model.
func (e *Exec) Model() shmem.Model { return e.model }

// staleCap mirrors sched's window bound; the two engines must retain the
// same choices or their fingerprint trees diverge.
const staleCap = 8

// noteWeakGrant maintains the stale windows — Controller.noteWeakGrant's
// logic verbatim over this engine's fields.
func (e *Exec) noteWeakGrant(pid int, crash bool) {
	in := e.ms[pid].intent
	if !crash && in.Kind == shmem.OpWrite {
		if r, ok := in.Reg.(*shmem.Reg); ok {
			v := r.Peek()
			for q := e.NextPending(-1); q >= 0; q = e.NextPending(q) {
				if q == pid || e.ms[q].intent.Kind != shmem.OpRead || e.ms[q].intent.Reg != in.Reg {
					continue
				}
				w := e.staleWin[q]
				if len(w) < staleCap && !containsI64(w, v) {
					e.staleWin[q] = append(w, v)
				}
			}
		}
	}
	e.staleWin[pid] = e.staleWin[pid][:0]
}

func containsI64(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// StaleVals mirrors Controller.StaleVals: the stale alternatives of pid's
// pending scalar read under a weak-register model.
func (e *Exec) StaleVals(pid int, buf []int64) []int64 {
	buf = buf[:0]
	if e.model.Regs == shmem.RegAtomic || e.phase[pid] != phasePending {
		return buf
	}
	in := e.ms[pid].intent
	if in.Kind != shmem.OpRead {
		return buf
	}
	r, ok := in.Reg.(*shmem.Reg)
	if !ok {
		return buf // Ref registers stay atomic under every model
	}
	w := e.staleWin[pid]
	if len(w) == 0 {
		return buf
	}
	cur := r.Peek()
	for _, v := range w {
		if v != cur {
			buf = append(buf, v)
		}
	}
	if e.model.Regs == shmem.RegSafe && cur != shmem.Null && !containsI64(buf, shmem.Null) {
		buf = append(buf, shmem.Null)
	}
	return buf
}

// StaleCount returns the number of stale alternatives for pid's pending read.
func (e *Exec) StaleCount(pid int) int {
	e.staleBuf = e.StaleVals(pid, e.staleBuf)
	return len(e.staleBuf)
}

// StepStale grants pid's pending scalar read returning stale choice idx.
func (e *Exec) StepStale(pid, idx int) {
	e.staleBuf = e.StaleVals(pid, e.staleBuf)
	if idx < 0 || idx >= len(e.staleBuf) {
		panic(fmt.Sprintf("vexec: StepStale(%d, %d) with %d stale choices", pid, idx, len(e.staleBuf)))
	}
	e.procs[pid].ArmStale(e.staleBuf[idx])
	e.grant(pid, 1, false, idx+1)
}

// Restart respawns a crashed lane under a recovery model: registers keep
// their contents, the frame stack (local state) is discarded, and a fresh
// root frame runs from the beginning — cumulative step count preserved on
// the Proc, exactly as the goroutine engine's re-run body.
func (e *Exec) Restart(pid int) {
	if !e.model.Recovery {
		panic("vexec: Restart without a recovery model (SetModel)")
	}
	if pid < 0 || pid >= e.n || e.phase[pid] != phaseCrashed {
		panic(fmt.Sprintf("vexec: Restart(%d) of non-crashed process (phase %s)", pid, phaseName(e.phase[pid])))
	}
	if e.restarts >= e.model.MaxRestarts {
		panic(fmt.Sprintf("vexec: Restart(%d) beyond the model's budget of %d", pid, e.model.MaxRestarts))
	}
	e.fp = sched.FoldGrant(e.fp, pid, 0, 0, false, 0, true)
	e.grants++
	e.restarts++
	if e.tracing {
		e.traceBuf = append(e.traceBuf, sched.TraceEvent{Pid: pid, Restart: true})
	}
	if e.st.enabled {
		e.st.move(pid)
	}
	e.procs[pid].BeginIncarnation()
	e.phase[pid] = phaseRunning
	e.err[pid] = nil
	e.spawn(pid)
}

// CanRestart reports whether Restart(pid) is currently legal.
func (e *Exec) CanRestart(pid int) bool {
	return e.model.Recovery && e.phase[pid] == phaseCrashed && e.restarts < e.model.MaxRestarts
}

// Restarts returns the number of restarts issued so far.
func (e *Exec) Restarts() int { return e.restarts }

// N returns the number of lanes.
func (e *Exec) N() int { return e.n }

// PendingCount returns the number of lanes with a posted intent.
func (e *Exec) PendingCount() int { return e.npending }

// NthPending returns the i-th pending pid in ascending order (i in
// [0, PendingCount)), or -1 — sched.NthPender, selected straight out of the
// pending bitmap so uniform random policies decide in O(n/64).
func (e *Exec) NthPending(i int) int {
	if i < 0 {
		return -1
	}
	for w, word := range e.pbits {
		c := bits.OnesCount64(word)
		if i >= c {
			i -= c
			continue
		}
		return w<<6 + select64(word, i)
	}
	return -1
}

// selByte[b|k<<8] is the position of the k-th (0-based) set bit of byte b,
// or 8 when b has fewer than k+1 bits. 2KB, built once; the table keeps
// select64 free of data-dependent branches, which mispredict badly under
// random schedules.
var selByte [2048]uint8

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for pos := 0; pos < 8; pos++ {
			if b>>pos&1 == 1 {
				selByte[b|k<<8] = uint8(pos)
				k++
			}
		}
		for ; k < 8; k++ {
			selByte[b|k<<8] = 8
		}
	}
}

// select64 returns the position of the k-th (0-based) set bit of x, for
// k < popcount(x). Branchless broadword select (Vigna): byte-wise popcount
// prefix sums via multiply, a SIMD-within-a-register byte comparison to
// locate the target byte, then a table lookup inside it.
func select64(x uint64, k int) int {
	const (
		ones = 0x0101010101010101
		msbs = 0x8080808080808080
	)
	s := x - ((x >> 1) & 0x5555555555555555)
	s = (s & 0x3333333333333333) + ((s >> 2) & 0x3333333333333333)
	s = ((s + (s >> 4)) & 0x0f0f0f0f0f0f0f0f) * ones
	// Byte i of s now holds popcount(bytes 0..i of x); all values <= 64, so
	// the carry trick below is an exact byte-wise "prefix <= k" test.
	leq := ((uint64(k)*ones | msbs) - s) & msbs
	place := uint(bits.OnesCount64(leq)) << 3
	byteRank := uint64(k) - ((s<<8)>>place)&0xff
	return int(place) + int(selByte[(x>>place)&0xff|byteRank<<8])
}

// NextPending returns the smallest pending pid greater than after, or -1.
func (e *Exec) NextPending(after int) int {
	i := after + 1
	if i < 0 {
		i = 0
	}
	if i >= e.n {
		return -1
	}
	w := uint(i) >> 6
	word := e.pbits[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if word != 0 {
			return int(w)<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= uint(len(e.pbits)) {
			return -1
		}
		word = e.pbits[w]
	}
}

// NextPendingKind returns the smallest pending pid greater than after whose
// posted intent is a kind operation, or -1.
func (e *Exec) NextPendingKind(after int, kind shmem.OpKind) int {
	for pid := e.NextPending(after); pid >= 0; pid = e.NextPending(pid) {
		if e.ms[pid].intent.Kind == kind {
			return pid
		}
	}
	return -1
}

// Intent returns the posted next operation of a pending lane.
func (e *Exec) Intent(pid int) shmem.Intent {
	if e.phase[pid] != phasePending {
		panic(fmt.Sprintf("vexec: Intent(%d) of non-pending process (phase %s)", pid, phaseName(e.phase[pid])))
	}
	return e.ms[pid].intent
}

// Proc returns the lane's process handle.
func (e *Exec) Proc(pid int) *shmem.Proc { return e.procs[pid] }

// Done reports whether the lane finished normally.
func (e *Exec) Done(pid int) bool { return e.phase[pid] == phaseDone }

// Crashed reports whether the lane was crash-injected.
func (e *Exec) Crashed(pid int) bool { return e.phase[pid] == phaseCrashed }

// Fingerprint returns the schedule fingerprint driven so far — FoldGrant
// over the decision sequence, bit-identical to the goroutine engine's.
func (e *Exec) Fingerprint() uint64 { return e.fp }

// Grants returns the number of scheduling decisions executed so far.
func (e *Exec) Grants() int64 { return e.grants }

// Returned reports lane pid's root-frame result. Valid only once Done.
func (e *Exec) Returned(pid int) (int64, bool) {
	if e.phase[pid] != phaseDone {
		return 0, false
	}
	return e.retI[pid], e.retB[pid]
}

// EnableTrace turns on grant recording, as Controller.EnableTrace.
func (e *Exec) EnableTrace() {
	e.tracing = true
	e.traceBuf = e.traceBuf[:0]
}

// Trace returns a copy of the grant sequence recorded since EnableTrace.
func (e *Exec) Trace() sched.Trace {
	return append(sched.Trace(nil), e.traceBuf...)
}

// TraceInto overwrites buf with the recorded grant sequence, as
// Controller.TraceInto.
func (e *Exec) TraceInto(buf sched.Trace) sched.Trace {
	return append(buf[:0], e.traceBuf...)
}

// TraceLen returns the number of grant events currently recorded — the
// event cursor the source-DPOR happens-before layer aligns its suffix
// watermarks against. Restore truncates the recorded trace to the
// snapshot's watermark, so after a restore TraceLen reports the
// checkpoint-time length.
func (e *Exec) TraceLen() int { return len(e.traceBuf) }

// Run drives the engine to completion — sched.DriveEngine over this engine,
// the same loop Controller.Run uses.
func (e *Exec) Run(policy sched.Policy, plan sched.CrashPlan) sched.Result {
	return sched.DriveEngine(e, policy, plan)
}

// ApplyTrace re-applies a recorded grant sequence — sched.ApplyTraceTo over
// this engine, the same replay loop Controller.ApplyTrace uses.
func (e *Exec) ApplyTrace(prefix sched.Trace) error {
	return sched.ApplyTraceTo(e, prefix)
}

// Result summarizes the execution at the current decision point, mirroring
// Controller.result field for field. It allocates a fresh summary; see
// ResultInto for the reusing form.
func (e *Exec) Result() sched.Result {
	var res sched.Result
	e.ResultInto(&res)
	return res
}

// ResultInto overwrites *res with the summary Result returns, reusing the
// backing arrays of res.Steps and res.Crashed, and of res.Restarts when this
// execution restarted a process (Restarts stays nil when none did). The
// stateful search drive keeps one Result for a whole walk this way.
func (e *Exec) ResultInto(res *sched.Result) {
	res.Steps = grow(res.Steps, e.n)
	res.Crashed = grow(res.Crashed, e.n)
	if e.restarts > 0 {
		res.Restarts = grow(res.Restarts, e.n)
	} else {
		res.Restarts = nil
	}
	res.Err, res.Fingerprint = nil, e.fp
	for i := 0; i < e.n; i++ {
		res.Steps[i] = e.procs[i].Steps()
		res.Crashed[i] = e.phase[i] == phaseCrashed
		if res.Restarts != nil {
			res.Restarts[i] = e.procs[i].Restarts()
		}
		if e.err[i] != nil && res.Err == nil {
			res.Err = e.err[i]
		}
	}
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
// the undo log covers the whole execution), enables tracing, and rules out
// StepN batching: checkpoints and traces must see every decision
// individually. Every lane's root frame must then be a Cloner; Checkpoint
// panics on the first pending lane whose root is not.
func (e *Exec) EnableState() {
	if e.grants != 0 {
		panic("vexec: EnableState after grants were issued")
	}
	if e.st.enabled {
		return
	}
	e.st.enabled = true
	e.st.clock++
	e.st.events = []uint64{e.st.clock}
	e.st.moved = make([]uint64, e.n)
	e.st.saved = make([]*laneSave, e.n)
	if !e.tracing {
		e.EnableTrace()
	}
}

// stateBeforeGrant pushes the pre-image of the register a write grant is
// about to write onto the undo log.
func (e *Exec) stateBeforeGrant(pid, k int, crash bool) {
	if k != 1 {
		panic("vexec: StepN batching is not allowed under EnableState (checkpoints must see every decision)")
	}
	if crash {
		return
	}
	in := e.ms[pid].intent
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
