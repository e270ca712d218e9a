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
// Exactly one goroutine of a Controller runs at any moment: the driver, or
// the one process it granted. The handoff is two unbuffered channels. Each
// process receives its grants on its own seat, and every process reports on
// one shared back channel once it has posted its next intent or ended, so
// every ledger update is ordered by a channel handoff and nothing is locked.
// Processes start one at a time in pid order, as vexec's lanes do. Every
// grant is exactly one step, as the paper's adversary schedules each
// register access on its own, and allocates nothing in steady state; see
// BenchmarkControllerStep and the controller_step rows of cmd/bench.
package sched

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/shmem"
	"repro/internal/xrand"
)

// Body is the algorithm a process runs. The process's identity and original
// name are available on p.
type Body func(p *shmem.Proc)

// Controller runs n processes in lock step. At any decision point every
// live process is either finished or blocked with a published Intent; the
// caller (a Policy, or adversary code driving the Controller directly)
// picks which process performs its next shared-memory operation. Each
// process runs on its own goroutine, but only while it holds a grant: the
// driver hands a grant over the process's seat channel and waits on the back
// channel until the process has posted its next intent or ended, so exactly
// one goroutine runs at any moment.
//
// The Controller is not itself safe for concurrent driving: exactly one
// goroutine may call Step/Crash/Run at a time; independent executions each
// need their own Controller.
type Controller struct {
	// Ledger is the decision bookkeeping. A process posts its intents and
	// records its exit into it while it runs, the driver its decisions while
	// every process is blocked or finished; the handoff orders the two.
	Ledger

	seats []chan bool   // per process: a grant, true to crash instead
	back  chan struct{} // the running process posted its next intent or ended
	body  Body          // retained for Restart's and Relaunch's respawn
}

// gate adapts the Controller to shmem.Gate for one process.
type gate struct {
	c   *Controller
	pid int
}

// Step publishes the intent, hands control back to the driver and blocks
// until granted. A crash grant unwinds the goroutine.
func (g gate) Step(pid int, intent shmem.Intent) {
	c := g.c
	c.intent[pid] = intent
	c.Post(pid)
	c.back <- struct{}{}
	if <-c.seats[pid] {
		panic(shmem.Crash{})
	}
}

// NewController starts n process goroutines running body, one at a time in
// pid order, and returns once every process is either blocked on its first
// shared-memory operation or already finished. names[i] is process i's
// original name; a nil names assigns pid+1.
func NewController(n int, names []int64, body Body) *Controller {
	c := &Controller{body: body, back: make(chan struct{})}
	c.Ledger = NewLedger(n, names, func(pid int) shmem.Gate { return gate{c: c, pid: pid} }, c, c.grant)
	c.seats = make([]chan bool, n)
	for i := range c.seats {
		c.seats[i] = make(chan bool)
	}
	for i := 0; i < n; i++ {
		c.spawn(i)
	}
	return c
}

// spawn starts a run of the body on pid and waits until it has posted its
// first intent or finished.
func (c *Controller) spawn(pid int) {
	go c.runProc(pid)
	<-c.back
}

func (c *Controller) runProc(pid int) {
	defer func() {
		c.Exit(pid, recover())
		c.back <- struct{}{}
	}()
	c.body(c.procs[pid])
}

// Restart respawns a crashed process under a recovery model: its registers
// keep their contents, its local state is lost, and the body re-runs from
// the beginning (cumulative step count preserved). The restart is a
// scheduling decision — it folds into the fingerprint and trace — and
// consumes one unit of the model's restart budget. On return the fresh
// incarnation has posted its first intent, so a grant to pid can only ever
// execute an operation the new incarnation posted: intents of the dead
// incarnation were discarded at the crash.
func (c *Controller) Restart(pid int) {
	c.RecordRestart(pid)
	c.Revive(pid)
	c.spawn(pid)
}

// Relaunch re-runs the body on a finished or crashed pid as a fresh logical
// process — the long-lived driver's lane recycling: one controller serves a
// stream of sessions over a fixed process set, one body run (and goroutine)
// per session. The Proc's identity and cumulative step count persist; a
// crashed process's discarded intent stays discarded. Relaunch is a harness
// action, not a scheduling decision: it folds nothing into the fingerprint,
// records no trace event and consumes no restart budget. On return the
// fresh run has posted its first intent (or already finished).
func (c *Controller) Relaunch(pid int) {
	c.CheckRelaunch(pid)
	c.Revive(pid)
	c.spawn(pid)
}

// grant hands a pending process one step (crash aborts it instead) and blocks
// until it has posted its next intent or ended. stale > 0 marks a
// weak-register read grant returning stale choice stale-1.
func (c *Controller) grant(pid int, crash bool, stale int) {
	c.RecordGrant(pid, crash, stale)
	c.seats[pid] <- crash
	<-c.back
}

// Step grants one shared-memory operation to a pending process and returns
// when it has posted its next intent or ended.
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
