// Package sched executes a set of simulated processes against shared memory
// under controlled asynchrony. It provides the two execution modes the
// reproduction needs:
//
//   - Controller: a deterministic cooperative scheduler that serializes the
//     processes at shared-register-access granularity. Before every register
//     access a process publishes its Intent (read/write + target register)
//     and blocks; the scheduler decides who moves next. This is exactly the
//     power the asynchronous adversary has in the paper's model, including
//     the lower-bound adversary of Theorem 6 (which schedules by inspecting
//     enabled operations) and crash injection at a precise operation.
//
//   - RunFree: free-running goroutines over atomic registers, for throughput
//     benchmarks and race-detector coverage.
//
// Crashes are modeled by unwinding the process goroutine with a
// panic(shmem.Crash{}) raised inside the gate; the runner recovers it. A
// crashed process takes no further steps, matching the model.
//
// The controller's grant path is engineered for throughput, since every time
// bound in the paper is stated in local steps and simulation cost per step
// bounds the reachable n and schedule count. A step handoff is a single
// mutex-protected park/unpark pair per side (no channel select, no per-step
// data transfer), the pending set is maintained incrementally as a bitmap
// (PendingInto and NextPending expose it without allocating), and StepN
// grants a run of consecutive steps with one wakeup. A granted step is
// zero-allocation in steady state; see BenchmarkControllerStep and the
// frozen pre-refactor implementation in internal/sched/baseline.
package sched

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/shmem"
	"repro/internal/xrand"
)

// Body is the algorithm a process runs. The process's identity and original
// name are available on p.
type Body func(p *shmem.Proc)

// procPhase tracks where a process is in its lifecycle.
type procPhase uint8

const (
	phaseRunning  procPhase = iota // computing locally (or not yet started)
	phasePending                   // blocked, intent posted, awaiting grant
	phaseDone                      // finished normally
	phaseCrashed                   // crash-injected
	phasePanicked                  // failed with an unexpected panic
)

// String names the phase for diagnostics (notably the non-pending panics,
// where "done" versus "crashed" tells the policy author what went wrong).
func (ph procPhase) String() string {
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
		return fmt.Sprintf("procPhase(%d)", uint8(ph))
	}
}

// seat is the per-process handoff slot. The grant itself is a lock-free
// publication: the driver writes crash and budget, then releases them with
// granted.Store(1); the process observes the flag (spinning briefly, then
// parking on cond), consumes the grant, and resets the flag. parked
// implements the spin-then-park protocol: the process sets it under c.mu
// before waiting, and the driver signals only when it is set, so the common
// fast handoff never touches the condition variable. budget is read and
// decremented by the process goroutine without any lock while it runs — the
// grant publication orders those accesses against the driver's write.
type seat struct {
	granted atomic.Uint32 // 1 while a grant is outstanding
	parked  atomic.Bool   // process is parked on cond awaiting the grant
	cond    sync.Cond     // L = &Controller.mu
	crash   bool
	budget  int // pre-granted steps the process may take without blocking
}

// Controller runs n processes in lock step. At any decision point every
// live process is either finished or blocked with a published Intent; the
// caller (a Policy, or adversary code driving the Controller directly)
// picks which process performs its next shared-memory operation.
//
// The Controller is not itself safe for concurrent driving: exactly one
// goroutine may call Step/StepN/Crash/Run at a time. (Use ParallelRuns for
// many independent executions.)
type Controller struct {
	n      int
	procs  []*shmem.Proc
	phase  []procPhase
	intent []shmem.Intent
	err    []error

	mu           sync.Mutex
	idle         sync.Cond    // driver parks here until active == 0
	driverParked atomic.Bool  // driver is parked on idle
	seats        []seat       // one handoff slot per process
	active       atomic.Int32 // processes currently computing (not blocked/finished)

	pbits    []uint64 // pending bitmap: bit pid set ⟺ phase[pid] == phasePending
	npending int

	fp     uint64 // incremental schedule fingerprint (see Fingerprint)
	grants int64  // scheduling decisions executed (see Grants)
	body   Body   // retained for Restore's respawn

	tracing  bool         // record grants into traceBuf (see EnableTrace)
	traceBuf []TraceEvent // the recorded grant sequence

	st stateLayer // checkpoint/restore bookkeeping (see state.go)

	// Fault-model capability knob (see shmem.Model and SetModel). The zero
	// model is the paper's: atomic registers, fail-stop crashes. All of the
	// bookkeeping below is dead when the model is atomic — the grant hot path
	// pays one predictable branch.
	model    shmem.Model
	restarts int       // restarts issued so far (recovery budget accounting)
	staleWin [][]int64 // per-pid stale windows of pending reads (weak regs only)
	staleBuf []int64   // scratch for StaleVals/StaleCount
}

// gate adapts the Controller to shmem.Gate for one process.
type gate struct {
	c   *Controller
	pid int
}

// Handoff tuning. Both sides yield to the runtime scheduler a bounded number
// of times before parking on a condition variable: with cooperative
// goroutines a yield is enough for the counterpart to run, so the common
// grant/quiesce handoff costs a goroutine switch rather than a full
// park/unpark round trip. The budgets are deliberately small — when the
// counterpart does not show up quickly (long local computation, or the
// policy is off granting other processes), parking is the right call.
const (
	quiesceYields = 8 // driver yields awaiting active == 0 before parking
	grantYields   = 2 // process yields awaiting its grant before parking
)

// Step publishes the intent and blocks until granted. A crash grant unwinds
// the goroutine. When the process holds pre-granted budget from StepN the
// step is consumed locally without locking or waking the driver.
func (g gate) Step(pid int, intent shmem.Intent) {
	c := g.c
	s := &c.seats[pid]
	if s.budget > 0 {
		// Batched-grant fast path: the driver handed this process a run of
		// steps and is waiting until the run is consumed; no other goroutine
		// touches the seat meanwhile.
		s.budget--
		return
	}
	c.mu.Lock()
	c.intent[pid] = intent
	c.phase[pid] = phasePending
	c.pbits[uint(pid)>>6] |= 1 << (uint(pid) & 63)
	c.npending++
	// With other processes pending the next grant is probably not ours, so
	// park straight away; as the sole pending process the driver's only
	// move is to grant (or crash) us, so briefly yield for it instead of
	// paying a park/unpark round trip.
	sole := c.npending == 1
	if c.active.Add(-1) == 0 && c.driverParked.Load() {
		c.idle.Signal()
	}
	if !sole {
		c.parkLocked(s)
	} else {
		c.mu.Unlock()
		granted := false
		for i := 0; i < grantYields; i++ {
			if s.granted.Load() != 0 {
				granted = true
				break
			}
			runtime.Gosched()
		}
		if !granted {
			c.mu.Lock()
			c.parkLocked(s)
		}
	}
	s.granted.Store(0)
	if s.crash {
		s.crash = false
		panic(shmem.Crash{})
	}
}

// parkLocked blocks the calling process on its seat until a grant is
// published, releasing c.mu on return. The parked flag is set and cleared
// under the mutex and the grant flag is rechecked before every wait, which
// together rule out a lost wakeup against grant's publish-then-signal
// sequence.
func (c *Controller) parkLocked(s *seat) {
	s.parked.Store(true)
	for s.granted.Load() == 0 {
		s.cond.Wait()
	}
	s.parked.Store(false)
	c.mu.Unlock()
}

// NewController starts n process goroutines running body and returns once
// every process is either blocked on its first shared-memory operation or
// already finished. names[i] is process i's original name; a nil names
// assigns pid+1.
func NewController(n int, names []int64, body Body) *Controller {
	if n <= 0 {
		panic("sched: controller needs at least one process")
	}
	if names != nil && len(names) != n {
		panic("sched: names length must equal n")
	}
	c := &Controller{
		n:      n,
		procs:  make([]*shmem.Proc, n),
		phase:  make([]procPhase, n),
		intent: make([]shmem.Intent, n),
		err:    make([]error, n),
		seats:  make([]seat, n),
		pbits:  make([]uint64, (n+63)/64),
		body:   body,
	}
	c.idle.L = &c.mu
	for i := 0; i < n; i++ {
		name := int64(i + 1)
		if names != nil {
			name = names[i]
		}
		c.seats[i].cond.L = &c.mu
		c.procs[i] = shmem.NewProc(i, name, gate{c: c, pid: i})
	}
	c.active.Store(int32(n))
	for i := 0; i < n; i++ {
		go c.runProc(i, body)
	}
	c.waitQuiesce()
	return c
}

func (c *Controller) runProc(pid int, body Body) {
	defer func() {
		r := recover()
		c.mu.Lock()
		c.seats[pid].budget = 0    // surrender any unconsumed StepN grant
		c.procs[pid].ClearReplay() // a finished catch-up leaves no stale cursor
		switch r := r.(type) {
		case nil:
			c.phase[pid] = phaseDone
		case shmem.Crash:
			c.phase[pid] = phaseCrashed
		default:
			c.phase[pid] = phasePanicked
			c.err[pid] = fmt.Errorf("sched: process %d panicked: %v\n%s", pid, r, debug.Stack())
		}
		if c.active.Add(-1) == 0 && c.driverParked.Load() {
			c.idle.Signal()
		}
		c.mu.Unlock()
	}()
	body(c.procs[pid])
}

// waitQuiesce blocks the driver until no process is computing: each live
// process has posted an intent or finished. It yields a bounded number of
// times first — the cooperative counterpart usually blocks within one
// scheduler pass — and only then parks on the idle condition variable, so
// the steady-state handoff never pays a park/unpark round trip.
func (c *Controller) waitQuiesce() {
	for i := 0; i < quiesceYields; i++ {
		if c.active.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	c.mu.Lock()
	c.driverParked.Store(true)
	for c.active.Load() > 0 {
		c.idle.Wait()
	}
	c.driverParked.Store(false)
	c.mu.Unlock()
}

// Pending returns the pids blocked on a shared-memory operation, in pid
// order. The slice is freshly allocated; the driven hot loop should prefer
// PendingInto or NextPending, which do not allocate.
func (c *Controller) Pending() []int {
	return c.PendingInto(make([]int, 0, c.npending))
}

// PendingInto appends the pending pids, in pid order, to buf[:0] and returns
// it. It allocates only if buf is too small; passing a buffer with capacity
// >= n makes the call allocation-free.
func (c *Controller) PendingInto(buf []int) []int {
	buf = buf[:0]
	for w, word := range c.pbits {
		for word != 0 {
			buf = append(buf, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return buf
}

// PendingCount returns the number of processes blocked on a shared-memory
// operation.
func (c *Controller) PendingCount() int { return c.npending }

// NextPending returns the smallest pending pid greater than after, or -1 if
// there is none. Iterating with after = -1, then the previous return value,
// visits the pending set in pid order without allocating.
func (c *Controller) NextPending(after int) int {
	i := after + 1
	if i < 0 {
		i = 0
	}
	if i >= c.n {
		return -1
	}
	w := uint(i) >> 6
	word := c.pbits[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if word != 0 {
			return int(w)<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= uint(len(c.pbits)) {
			return -1
		}
		word = c.pbits[w]
	}
}

// Intent returns the published next operation of a pending process.
func (c *Controller) Intent(pid int) shmem.Intent {
	if c.phase[pid] != phasePending {
		panic(fmt.Sprintf("sched: Intent(%d) of non-pending process (phase %s)", pid, c.phase[pid]))
	}
	return c.intent[pid]
}

// N returns the number of processes the controller was built with.
func (c *Controller) N() int { return c.n }

// NextPendingKind returns the smallest pending pid greater than after whose
// posted intent is a kind operation, or -1 if there is none. It is the
// intent-aware counterpart of NextPending, letting adversarial policies scan
// just the pending readers (or writers) without materializing the pending
// set.
func (c *Controller) NextPendingKind(after int, kind shmem.OpKind) int {
	for pid := c.NextPending(after); pid >= 0; pid = c.NextPending(pid) {
		if c.intent[pid].Kind == kind {
			return pid
		}
	}
	return -1
}

// Fingerprint returns a hash identifying the schedule driven so far: every
// grant and crash folds (pid, operation kind, run length, crash) into it, so
// for a fixed body two executions share a fingerprint exactly when the
// adversary made the same decisions in the same order. Explorers use it to
// count distinct interleavings actually exercised.
func (c *Controller) Fingerprint() uint64 { return c.fp }

// Proc returns the process handle (for step counts and identity).
func (c *Controller) Proc(pid int) *shmem.Proc { return c.procs[pid] }

// Done reports whether the process finished normally.
func (c *Controller) Done(pid int) bool { return c.phase[pid] == phaseDone }

// Crashed reports whether the process was crash-injected.
func (c *Controller) Crashed(pid int) bool { return c.phase[pid] == phaseCrashed }

// SetModel opens the fault-model capability knob (see shmem.Model). It must
// be called before any grant so the model covers the whole execution. The
// zero model is the default and needs no call; setting it again is a no-op.
// A recovery model with MaxRestarts == 0 is normalized to a budget of n.
// Weak register semantics rule out StepN batching (stale windows must see
// every decision individually).
func (c *Controller) SetModel(m shmem.Model) {
	if c.grants != 0 {
		panic("sched: SetModel after grants were issued")
	}
	if m.Recovery && m.MaxRestarts == 0 {
		m.MaxRestarts = c.n
	}
	c.model = m
	if m.Regs != shmem.RegAtomic && c.staleWin == nil {
		c.staleWin = make([][]int64, c.n)
	}
}

// Model returns the controller's fault model (the zero value by default).
func (c *Controller) Model() shmem.Model { return c.model }

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
func (c *Controller) noteWeakGrant(pid int, crash bool) {
	in := c.intent[pid]
	if !crash && in.Kind == shmem.OpWrite {
		if r, ok := in.Reg.(*shmem.Reg); ok {
			v := r.Peek()
			for q := c.NextPending(-1); q >= 0; q = c.NextPending(q) {
				if q == pid || c.intent[q].Kind != shmem.OpRead || c.intent[q].Reg != in.Reg {
					continue
				}
				w := c.staleWin[q]
				if len(w) < staleCap && !containsI64(w, v) {
					c.staleWin[q] = append(w, v)
				}
			}
		}
	}
	c.staleWin[pid] = c.staleWin[pid][:0]
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
func (c *Controller) StaleVals(pid int, buf []int64) []int64 {
	buf = buf[:0]
	if c.model.Regs == shmem.RegAtomic || c.phase[pid] != phasePending {
		return buf
	}
	in := c.intent[pid]
	if in.Kind != shmem.OpRead {
		return buf
	}
	r, ok := in.Reg.(*shmem.Reg)
	if !ok {
		return buf // Ref registers stay atomic under every model
	}
	w := c.staleWin[pid]
	if len(w) == 0 {
		return buf
	}
	cur := r.Peek()
	for _, v := range w {
		if v != cur {
			buf = append(buf, v)
		}
	}
	if c.model.Regs == shmem.RegSafe && cur != shmem.Null && !containsI64(buf, shmem.Null) {
		buf = append(buf, shmem.Null)
	}
	return buf
}

// StaleCount returns the number of stale alternatives for pid's pending read
// (0 under the atomic model, for writes, and for non-overlapped reads). A
// search strategy branches the grant of pid StaleCount+1 ways: the fresh read
// plus one StepStale per index.
func (c *Controller) StaleCount(pid int) int {
	c.staleBuf = c.StaleVals(pid, c.staleBuf)
	return len(c.staleBuf)
}

// StepStale grants pid's pending scalar read one step returning stale choice
// idx (an index into StaleVals) instead of the current register contents.
// The decision folds into the fingerprint and trace distinctly from a fresh
// Step, so schedules differing only in staleness choices stay distinct.
func (c *Controller) StepStale(pid, idx int) {
	c.staleBuf = c.StaleVals(pid, c.staleBuf)
	if idx < 0 || idx >= len(c.staleBuf) {
		panic(fmt.Sprintf("sched: StepStale(%d, %d) with %d stale choices", pid, idx, len(c.staleBuf)))
	}
	c.procs[pid].ArmStale(c.staleBuf[idx])
	c.grant(pid, 1, false, idx+1)
}

// Restart respawns a crashed process under a recovery model: its registers
// keep their contents, its local state is lost, and the body re-runs from
// the beginning (cumulative step count preserved). The restart is a
// scheduling decision — it folds into the fingerprint and trace — and
// consumes one unit of the model's restart budget. On return the controller
// is quiesced with the fresh incarnation's first intent posted, so a grant
// to pid can only ever execute an operation the new incarnation posted:
// intents of the dead incarnation were discarded at the crash.
func (c *Controller) Restart(pid int) {
	if !c.model.Recovery {
		panic("sched: Restart without a recovery model (SetModel)")
	}
	if pid < 0 || pid >= c.n || c.phase[pid] != phaseCrashed {
		panic(fmt.Sprintf("sched: Restart(%d) of non-crashed process (phase %s)", pid, c.phase[pid]))
	}
	if c.restarts >= c.model.MaxRestarts {
		panic(fmt.Sprintf("sched: Restart(%d) beyond the model's budget of %d", pid, c.model.MaxRestarts))
	}
	c.fp = FoldGrant(c.fp, pid, 0, 0, false, 0, true)
	c.grants++
	c.restarts++
	if c.tracing {
		c.traceBuf = append(c.traceBuf, TraceEvent{Pid: pid, Restart: true})
	}
	c.procs[pid].BeginIncarnation()
	c.mu.Lock()
	c.phase[pid] = phaseRunning
	c.err[pid] = nil
	c.mu.Unlock()
	c.active.Add(1)
	go c.runProc(pid, c.body)
	c.waitQuiesce()
}

// CanRestart reports whether Restart(pid) is currently legal: recovery model,
// pid crashed, budget remaining.
func (c *Controller) CanRestart(pid int) bool {
	return c.model.Recovery && c.phase[pid] == phaseCrashed && c.restarts < c.model.MaxRestarts
}

// Restarts returns the number of restarts issued so far.
func (c *Controller) Restarts() int { return c.restarts }

// grant hands a pending process a run of k steps (crash aborts it instead)
// and blocks until every process is again blocked or finished. stale > 0
// marks a weak-register read grant returning stale choice stale-1.
func (c *Controller) grant(pid, k int, crash bool, stale int) {
	if pid < 0 || pid >= c.n {
		panic(fmt.Sprintf("sched: grant to process %d outside [0..%d)", pid, c.n))
	}
	if c.phase[pid] != phasePending {
		panic(fmt.Sprintf("sched: grant to non-pending process %d (phase %s): the policy returned a pid with no posted intent", pid, c.phase[pid]))
	}
	// Fold the decision into the schedule fingerprint before executing it:
	// (pid, posted operation kind, run length, crash bit, staleness choice)
	// per grant uniquely identifies the interleaving for a fixed body. pid
	// and k are mixed as separate words so no batch size can alias another
	// pid's decision.
	c.fp = FoldGrant(c.fp, pid, k, c.intent[pid].Kind, crash, stale, false)
	c.grants++
	if c.model.Regs != shmem.RegAtomic {
		c.noteWeakGrant(pid, crash)
	}
	if c.st.enabled {
		c.stateBeforeGrant(pid, k, crash)
	}
	if c.tracing {
		in := c.intent[pid]
		c.traceBuf = append(c.traceBuf, TraceEvent{Pid: pid, Op: in.Kind, Reg: in.Reg, K: k, Crash: crash, Stale: stale})
	}
	c.mu.Lock()
	c.phase[pid] = phaseRunning
	c.pbits[uint(pid)>>6] &^= 1 << (uint(pid) & 63)
	c.npending--
	c.active.Add(1)
	s := &c.seats[pid]
	s.crash = crash
	s.budget = k - 1 // the grant itself is the first step of the run
	s.granted.Store(1)
	if s.parked.Load() {
		s.cond.Signal()
	}
	c.mu.Unlock()
	c.waitQuiesce()
	if c.st.enabled {
		c.stateAfterGrant()
	}
}

// Step grants one shared-memory operation to a pending process and returns
// when every process is again blocked or finished.
func (c *Controller) Step(pid int) { c.grant(pid, 1, false, 0) }

// StepN grants a run of k consecutive shared-memory operations to a pending
// process with a single wakeup, returning when every process is again
// blocked or finished. The process consumes the remaining k-1 steps without
// waking the scheduler; if it finishes (or needs fewer steps) the surplus is
// discarded. StepN is the batching primitive for oblivious policies, whose
// decisions do not depend on the intermediate intents.
func (c *Controller) StepN(pid, k int) {
	if k < 1 {
		panic(fmt.Sprintf("sched: StepN(%d, %d) needs k >= 1", pid, k))
	}
	if k > 1 && c.model.Regs != shmem.RegAtomic {
		panic("sched: StepN batching is not allowed under weak register semantics (stale windows must see every decision)")
	}
	c.grant(pid, k, false, 0)
}

// Crash terminates a pending process before its posted operation executes.
// The operation is not performed — the paper's crash model.
func (c *Controller) Crash(pid int) {
	if c.phase[pid] != phasePending {
		panic(fmt.Sprintf("sched: Crash(%d) of non-pending process (phase %s)", pid, c.phase[pid]))
	}
	c.grant(pid, 1, true, 0)
}

// Abort crashes every pending process, releasing all goroutines. It is the
// cleanup path for partially driven executions.
func (c *Controller) Abort() {
	for {
		pid := c.NextPending(-1)
		if pid < 0 {
			return
		}
		c.Crash(pid)
	}
}

// Result summarizes a completed execution.
type Result struct {
	Steps       []int64 // local steps per process
	Crashed     []bool  // crash-injected processes
	Restarts    []int   // crash-recovery restarts per process (nil when none)
	Err         error   // first unexpected panic, if any
	Fingerprint uint64  // schedule hash of the driven execution (0 for RunFree)
}

// MaxSteps returns the maximum per-process step count, the quantity the
// paper's wait-free bounds constrain.
func (r Result) MaxSteps() int64 {
	var m int64
	for _, s := range r.Steps {
		if s > m {
			m = s
		}
	}
	return m
}

// TotalSteps returns the sum of all processes' local steps.
func (r Result) TotalSteps() int64 {
	var t int64
	for _, s := range r.Steps {
		t += s
	}
	return t
}

func (c *Controller) result() Result {
	res := Result{Steps: make([]int64, c.n), Crashed: make([]bool, c.n), Fingerprint: c.fp}
	if c.restarts > 0 {
		res.Restarts = make([]int, c.n)
	}
	for i := 0; i < c.n; i++ {
		res.Steps[i] = c.procs[i].Steps()
		res.Crashed[i] = c.phase[i] == phaseCrashed
		if res.Restarts != nil {
			res.Restarts[i] = c.procs[i].Restarts()
		}
		if c.err[i] != nil && res.Err == nil {
			res.Err = c.err[i]
		}
	}
	return res
}

// Run drives the controller with policy (and optional crash plan) until every
// process has finished or crashed, then returns the execution summary. It is
// DriveEngine over this controller — the decision loop itself lives in
// engine.go so both execution engines share it verbatim. The pending slice
// passed to the policy is reused between decisions; policies must not retain
// it. Policies that also implement IterPolicy are driven through the
// pending-set iterator and never receive a slice at all, making each decision
// O(1) instead of O(pending).
func (c *Controller) Run(policy Policy, plan CrashPlan) Result {
	return DriveEngine(c, policy, plan)
}

// Run is the one-call entry point: construct a controller, drive it with
// policy and plan, and return the result.
func Run(n int, names []int64, policy Policy, plan CrashPlan, body Body) Result {
	return RunModel(n, names, shmem.Model{}, policy, plan, body)
}

// RunModel is Run under an explicit fault model (see shmem.Model and
// SetModel). The zero model makes it identical to Run.
func RunModel(n int, names []int64, m shmem.Model, policy Policy, plan CrashPlan, body Body) Result {
	c := NewController(n, names, body)
	if !m.Atomic() {
		c.SetModel(m)
	}
	return c.Run(policy, plan)
}

// RunFree executes the processes as free-running goroutines with no
// scheduler, exercising true concurrency over the atomic registers. Panics
// other than shmem.Crash are captured into Result.Err.
func RunFree(n int, names []int64, body Body) Result {
	if names != nil && len(names) != n {
		panic("sched: names length must equal n")
	}
	procs := make([]*shmem.Proc, n)
	res := Result{Steps: make([]int64, n), Crashed: make([]bool, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := int64(i + 1)
		if names != nil {
			name = names[i]
		}
		procs[i] = shmem.NewProc(i, name, nil)
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(shmem.Crash); ok {
						res.Crashed[pid] = true
						return
					}
					errs[pid] = fmt.Errorf("sched: process %d panicked: %v\n%s", pid, r, debug.Stack())
				}
			}()
			body(procs[pid])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		res.Steps[i] = procs[i].Steps()
		if errs[i] != nil && res.Err == nil {
			res.Err = errs[i]
		}
	}
	return res
}

// RunSpec describes one independent driven execution for ParallelRuns.
type RunSpec struct {
	N      int
	Names  []int64 // nil assigns pid+1
	Model  shmem.Model
	Policy Policy
	Plan   CrashPlan // nil injects no crashes
	Body   Body
}

// ParallelRuns executes m independent driven executions across up to
// GOMAXPROCS workers and returns their results in run order. mk is called
// once per run index, concurrently from the workers, and must return a
// self-contained spec: runs share nothing unless the caller's specs
// deliberately alias state that is safe for concurrent use. It is the
// schedule-exploration primitive: m seeded schedules (or crash plans) over
// the same algorithm in one call.
func ParallelRuns(m int, mk func(run int) RunSpec) []Result {
	if m <= 0 {
		return nil
	}
	results := make([]Result, m)
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= m {
					return
				}
				sp := mk(i)
				results[i] = RunModel(sp.N, sp.Names, sp.Model, sp.Policy, sp.Plan, sp.Body)
			}
		}()
	}
	wg.Wait()
	return results
}

// Policy chooses the next process to step among the pending ones. The
// pending slice is sorted by pid and valid only for the duration of the
// call. Policies decide through the Engine seam, so the same policy drives
// the goroutine controller and the vectorized engine unchanged.
type Policy interface {
	Next(e Engine, pending []int) int
}

// IterPolicy is the allocation-free decision interface: policies that can
// pick the next process from the engine's pending-set iterator
// (NextPending / PendingCount) implement it in addition to Policy, and Run
// then never materializes a pending slice. NextIter must return a pending
// pid; Run guarantees at least one process is pending when it calls.
//
// NextIter and Next must make identical decisions — the same pid from the
// same engine state, with the same rng draws — so a seeded schedule does
// not depend on which entry point a driver (or a caller holding a plain
// Policy, such as a PolicyFunc wrapper) goes through. The simplest way to
// keep that promise is one decision procedure: Next delegates to NextIter.
type IterPolicy interface {
	NextIter(e Engine) int
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(e Engine, pending []int) int

// Next implements Policy.
func (f PolicyFunc) Next(e Engine, pending []int) int { return f(e, pending) }

// RoundRobin cycles through the processes in pid order, starting from pid 0.
// The zero value is ready to use.
type RoundRobin struct {
	next int // smallest pid eligible before wrapping
}

// Next implements Policy.
func (rr *RoundRobin) Next(e Engine, pending []int) int {
	for _, pid := range pending {
		if pid >= rr.next {
			rr.next = pid + 1
			return pid
		}
	}
	rr.next = pending[0] + 1
	return pending[0]
}

// NextIter implements IterPolicy: an O(1) amortized cyclic scan of the
// pending bitmap.
func (rr *RoundRobin) NextIter(e Engine) int {
	pid := e.NextPending(rr.next - 1)
	if pid < 0 {
		pid = e.NextPending(-1)
		if pid < 0 {
			return -1
		}
	}
	rr.next = pid + 1
	return pid
}

// Random picks uniformly among pending processes from a deterministic seed.
type Random struct {
	rng *xrand.Rand
}

// NewRandom returns a seeded random policy.
func NewRandom(seed uint64) *Random {
	return &Random{rng: xrand.New(seed)}
}

// Next implements Policy.
func (r *Random) Next(e Engine, pending []int) int {
	return pending[r.rng.Intn(len(pending))]
}

// NthPender is implemented by engines that can select the i-th pending pid
// (ascending) faster than i NextPending hops — vexec selects it straight
// out of its pending bitmap.
type NthPender interface {
	NthPending(i int) int
}

// NthPending returns the i-th pending pid of e in ascending order (i in
// [0, PendingCount)): straight from the engine when it is an NthPender,
// otherwise by i NextPending hops.
func NthPending(e Engine, i int) int {
	if np, ok := e.(NthPender); ok {
		return np.NthPending(i)
	}
	pid := e.NextPending(-1)
	for ; i > 0; i-- {
		pid = e.NextPending(pid)
	}
	return pid
}

// NextIter implements IterPolicy: the identical uniform choice as Next —
// the r-th pending pid in ascending order for r = Intn(PendingCount) with
// one rng draw — without materializing the pending slice, so seeded
// schedules are unchanged while the per-decision O(pending) copy is gone.
func (r *Random) NextIter(e Engine) int {
	return NthPending(e, r.rng.Intn(e.PendingCount()))
}

// CrashPlan decides, just before a chosen process would take a step, whether
// to crash it instead. steps is the process's local-step count so far.
type CrashPlan interface {
	ShouldCrash(pid int, steps int64, intent shmem.Intent) bool
}

// StalePolicy is the weak-register extension of Policy: under a model with
// regular or safe registers, Run consults it after picking a process whose
// pending read has stale alternatives. PickStale returns 0 for the fresh read
// or s in 1..count to return stale choice s-1 (see StaleVals) — both boundary
// values are legal, and the drivers enforce the convention: a return outside
// [0..count] panics with the convention spelled out (see checkStaleChoice)
// instead of surfacing as an index panic or silently reading fresh. Policies
// not implementing the interface always read fresh — the atomic behavior.
type StalePolicy interface {
	PickStale(e Engine, pid, count int) int
}

// RestartPlan is the crash-recovery extension of CrashPlan: under a recovery
// model, Run offers every crashed process (with budget remaining) back to the
// plan before each scheduling decision. restarts is the count of restarts the
// process has already consumed. Plans not implementing it never restart — the
// fail-stop behavior.
type RestartPlan interface {
	ShouldRestart(pid int, restarts int) bool
}

// CrashPlanFunc adapts a function to the CrashPlan interface.
type CrashPlanFunc func(pid int, steps int64, intent shmem.Intent) bool

// ShouldCrash implements CrashPlan.
func (f CrashPlanFunc) ShouldCrash(pid int, steps int64, intent shmem.Intent) bool {
	return f(pid, steps, intent)
}

// CrashAllBut crashes every process except survivor on its first step. It is
// the canonical wait-freedom test: the survivor must still complete.
func CrashAllBut(survivor int) CrashPlan {
	return CrashPlanFunc(func(pid int, _ int64, _ shmem.Intent) bool {
		return pid != survivor
	})
}

// CrashAt crashes the listed processes when their step count reaches the
// paired threshold. at maps pid to the step count at which to crash.
func CrashAt(at map[int]int64) CrashPlan {
	return CrashPlanFunc(func(pid int, steps int64, _ shmem.Intent) bool {
		th, ok := at[pid]
		return ok && steps >= th
	})
}

// RandomCrashes crashes each process independently with probability prob at
// every scheduling decision, up to maxCrashes total, from a deterministic
// seed.
func RandomCrashes(seed uint64, prob float64, maxCrashes int) CrashPlan {
	rng := xrand.New(seed)
	crashed := 0
	return CrashPlanFunc(func(pid int, _ int64, _ shmem.Intent) bool {
		if crashed >= maxCrashes {
			return false
		}
		if rng.Float64() < prob {
			crashed++
			return true
		}
		return false
	})
}
