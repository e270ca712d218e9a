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
// The decision bookkeeping (pending set, intents, phases, fingerprint,
// trace, fault-model state) lives in a Ledger, which the Controller embeds
// and the vectorized engine (internal/vexec) embeds too; the Controller adds
// only the goroutine handoff.
//
// Crashes are modeled by unwinding the process goroutine with a
// panic(shmem.Crash{}) raised inside the gate; the runner recovers it. A
// crashed process takes no further steps, matching the model.
//
// The controller's grant path is engineered for throughput, since every time
// bound in the paper is stated in local steps and simulation cost per step
// bounds the reachable n and schedule count. A step handoff is a single
// mutex-protected park/unpark pair per side (no channel select, no per-step
// data transfer), the pending set is maintained incrementally as bit words
// (Pending and PendingReads expose them without copying), and every grant is
// exactly one step, as the paper's adversary schedules each register access
// on its own. A granted step is zero-allocation in steady state; see
// BenchmarkControllerStep and the controller_step rows of cmd/bench.
package sched

import (
	"fmt"
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

// seat is the per-process handoff slot. The grant itself is a lock-free
// publication: the driver writes crash, then releases it with
// granted.Store(1); the process observes the flag (spinning briefly, then
// parking on cond), consumes the grant, and resets the flag. parked
// implements the spin-then-park protocol: the process sets it under c.mu
// before waiting, and the driver signals only when it is set, so the common
// fast handoff never touches the condition variable.
type seat struct {
	granted atomic.Uint32 // 1 while a grant is outstanding
	parked  atomic.Bool   // process is parked on cond awaiting the grant
	cond    sync.Cond     // L = &Controller.mu
	crash   bool
}

// Controller runs n processes in lock step. At any decision point every
// live process is either finished or blocked with a published Intent; the
// caller (a Policy, or adversary code driving the Controller directly)
// picks which process performs its next shared-memory operation.
//
// The Controller is not itself safe for concurrent driving: exactly one
// goroutine may call Step/Crash/Run at a time. (Use ParallelRuns for
// many independent executions.)
type Controller struct {
	// Ledger is the decision bookkeeping. The processes post intents and
	// record their exits into it under mu; the driver records decisions
	// while every process is blocked or finished.
	Ledger

	mu           sync.Mutex
	idle         sync.Cond    // driver parks here until active == 0
	driverParked atomic.Bool  // driver is parked on idle
	seats        []seat       // one handoff slot per process
	active       atomic.Int32 // processes currently computing (not blocked/finished)

	body Body // retained for Restart's respawn
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
// the goroutine.
func (g gate) Step(pid int, intent shmem.Intent) {
	c := g.c
	s := &c.seats[pid]
	c.mu.Lock()
	c.intent[pid] = intent
	c.Post(pid)
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
	c := &Controller{body: body}
	c.Ledger = NewLedger(n, names, func(pid int) shmem.Gate { return gate{c: c, pid: pid} }, c, c.grant)
	c.seats = make([]seat, n)
	c.idle.L = &c.mu
	for i := range c.seats {
		c.seats[i].cond.L = &c.mu
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
		c.Exit(pid, r)
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

// Restart respawns a crashed process under a recovery model: its registers
// keep their contents, its local state is lost, and the body re-runs from
// the beginning (cumulative step count preserved). The restart is a
// scheduling decision — it folds into the fingerprint and trace — and
// consumes one unit of the model's restart budget. On return the controller
// is quiesced with the fresh incarnation's first intent posted, so a grant
// to pid can only ever execute an operation the new incarnation posted:
// intents of the dead incarnation were discarded at the crash.
func (c *Controller) Restart(pid int) {
	c.RecordRestart(pid)
	c.mu.Lock()
	c.Revive(pid)
	c.mu.Unlock()
	c.active.Add(1)
	go c.runProc(pid, c.body)
	c.waitQuiesce()
}

// grant hands a pending process one step (crash aborts it instead) and blocks
// until every process is again blocked or finished. stale > 0 marks a
// weak-register read grant returning stale choice stale-1.
func (c *Controller) grant(pid int, crash bool, stale int) {
	c.record(pid, crash, stale, false)
	c.mu.Lock()
	c.unpend(pid)
	c.active.Add(1)
	s := &c.seats[pid]
	s.crash = crash
	s.granted.Store(1)
	if s.parked.Load() {
		s.cond.Signal()
	}
	c.mu.Unlock()
	c.waitQuiesce()
}

// Step grants one shared-memory operation to a pending process and returns
// when every process is again blocked or finished.
func (c *Controller) Step(pid int) { c.grant(pid, false, 0) }

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

// Policy chooses the next process to step among the pending ones. It reads
// the pending set off the engine's bit words (Pending, PendingReads and
// PendingCount, walked with NextBit, NthBit and HasBit) and must return a
// pending pid; the drivers call Next only while at least one process is
// pending.
// Policies decide through the Engine seam, so the same policy drives the
// goroutine controller and the vectorized engine unchanged, and each policy
// has exactly one decision procedure.
type Policy interface {
	Next(e Engine) int
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(e Engine) int

// Next implements Policy.
func (f PolicyFunc) Next(e Engine) int { return f(e) }

// Pending appends the pending pids of e, in pid order, to buf[:0] and returns
// it: the slice form of e.Pending, for tests that want the whole set at once.
// Passing a buffer with capacity >= e.N() makes the call allocation-free.
func Pending(e Engine, buf []int) []int {
	buf = buf[:0]
	words := e.Pending()
	for pid := NextBit(words, -1); pid >= 0; pid = NextBit(words, pid) {
		buf = append(buf, pid)
	}
	return buf
}

// RoundRobin cycles through the processes in pid order, starting from pid 0.
// The zero value is ready to use.
type RoundRobin struct {
	next int // smallest pid eligible before wrapping
}

// Next implements Policy: the next pending pid at or after rr.next, wrapping
// around to the smallest — a scan of the pending words.
func (rr *RoundRobin) Next(e Engine) int {
	words := e.Pending()
	pid := NextBit(words, rr.next-1)
	if pid < 0 {
		pid = NextBit(words, -1)
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

// Next implements Policy: the r-th pending pid in ascending order for
// r = Intn(PendingCount), one rng draw per decision.
func (r *Random) Next(e Engine) int {
	return NthBit(e.Pending(), r.rng.Intn(e.PendingCount()))
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
