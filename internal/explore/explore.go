// Package explore makes schedule-search strategy a first-class, pluggable
// layer between the lockstep scheduler (internal/sched) and the campaign
// drivers (internal/adversary, internal/model). A Strategy decides, at every
// decision point of an in-flight execution, which pending process to grant
// (or crash), and — when the execution completes — consumes its recorded
// Trace to steer the next one. Four strategies ship:
//
//   - Seeded: wraps a (policy, crash plan) factory per run seed — the
//     pre-existing blind-seeding behavior, bit-for-bit, and embarrassingly
//     parallel (Drive fans it across sched.ParallelRuns).
//   - SleepSet: the exhaustive DFS over the full schedule-and-crash tree with
//     sleep-set pruning of commuting grants. Unbudgeted it exhausts the tree.
//   - SourceDPOR: the stateful dynamic partial-order reduction — backtrack
//     source sets computed from races over the intent graph, plus sleep
//     sets, with checkpoint/restore instead of prefix replay on the
//     vectorized engine (Config.Frame is required). It explores at least
//     one representative per Mazurkiewicz trace, so final-state invariants
//     checked on its executions are checked on all. The engine
//     internal/model proves tiny populations with. No node is cut by a
//     state hash, so a complete walk is an exact proof.
//   - CoverageGuided: fuzz-style mutation of (configuration, seed) pairs,
//     keeping the genomes whose schedules reach never-seen prefix
//     fingerprints.
//
// The package knows nothing about renaming: independence between grants
// comes entirely from the Intent metadata the scheduler exposes (distinct
// registers commute, read/read commutes), so any algorithm driven through
// sched gets every strategy for free.
package explore

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// Choice is one scheduling decision: grant pid a run of K steps (K < 1 means
// one), or crash it before its posted operation executes. A negative Pid
// abandons the in-flight execution — the strategy has recognized the prefix
// as redundant (sleep-blocked) and wants to backtrack without finishing it.
//
// Under a fault model (sched.Controller.SetModel) two more decision kinds
// exist: Stale > 0 grants pid's pending read returning stale choice Stale-1
// (weak registers — see sched.StepStale), and Restart respawns a crashed pid
// (crash recovery — see sched.Restart). Both are zero under the default
// model.
type Choice struct {
	Pid     int
	K       int
	Crash   bool
	Stale   int
	Restart bool
}

// Abandon is the Choice a strategy returns to cut off a redundant execution.
var Abandon = Choice{Pid: -1}

// Halt is the Choice a strategy returns to end the current execution as
// complete at a point where it could also continue — under a recovery model,
// a state with no pending process but restartable crashed ones is a genuine
// decision: the adversary stops (fail-stop outcome) or restarts somebody.
// Under the default model the situation cannot arise and Halt is never seen.
var Halt = Choice{Pid: -2}

// Stats accounts for a strategy's search effort.
type Stats struct {
	// Executions is the number of completed executions driven.
	Executions int
	// Partial counts executions abandoned mid-flight (sleep-blocked prefixes).
	Partial int
	// Explored counts distinct scheduling decisions executed — the "states
	// visited" of the search. Stateless tree strategies re-execute committed
	// prefixes to reconstruct state; those grants revisit states rather than
	// explore new ones and are counted in Replayed, not here.
	Explored int
	// Replayed counts prefix grants re-executed during state reconstruction
	// (tree strategies only) — the bookkeeping cost of statelessness. Total
	// grants performed = Explored + Replayed. Stateful strategies (source
	// DPOR) reconstruct by checkpoint restore instead and always report 0.
	Replayed int
	// Restored counts checkpoint restores performed by stateful strategies —
	// the vectorized engine's copy of the lanes that moved, which replaces
	// each Replayed prefix re-execution.
	Restored int
	// Pruned counts enabled choices the strategy skipped because partial-order
	// reasoning (sleep sets, backtrack sets) showed them redundant.
	Pruned int
	// RaceEvents counts happens-before rows derived by race analysis
	// (source-DPOR only): the incremental layer derives one row per distinct
	// trace event, the rebuild reference re-derives every row of the whole
	// trace at every backtrack — the gap is the work the layer saves.
	RaceEvents int
	// RaceNs is wall-clock nanoseconds spent in race analysis (source-DPOR
	// only). Timing, not tree shape: determinism comparisons must ignore it.
	RaceNs int64
	// Complete reports that the strategy exhausted its search space: every
	// schedule (modulo commuting-grant equivalence) has been covered. Only
	// the tree strategies can set it; budget exhaustion leaves it false.
	Complete bool
}

// Strategy is the pluggable search layer. Drive calls Next at every decision
// point of the in-flight execution and Backtrack when it ends (completed or
// abandoned); Backtrack returns false when the strategy wants no further
// executions. A Strategy instance drives one sequential search and is not
// safe for concurrent use; strategies whose executions are independent
// additionally implement Independent and get fanned across workers.
type Strategy interface {
	// Name labels the strategy in reports and bench output.
	Name() string
	// Next picks the decision at the current point: the engine exposes
	// the pending set, each pending process's posted Intent, and the
	// commutation metadata (IntentsCommute) — exactly the paper's adversary
	// view plus the independence structure search needs. Strategies see
	// sched.Engine, never a concrete engine: the same search drives the
	// goroutine oracle and the vectorized step-function engine unchanged.
	Next(e sched.Engine) Choice
	// Backtrack consumes a finished execution's trace and result, updating
	// the search frontier. It returns true while more executions are wanted.
	// Like Config.OnResult, the trace aliases a reused buffer: it is valid
	// only during the call and must be copied to retain.
	Backtrack(t sched.Trace, res sched.Result) bool
	// Stats reports the search effort so far.
	Stats() Stats
}

// Independent is implemented by strategies whose executions are pure
// functions of their run index (no cross-execution steering): Drive then
// fans them across sched.ParallelRuns instead of running sequentially.
type Independent interface {
	// Runs is the total number of executions the strategy wants.
	Runs() int
	// PolicyPlan builds run's scheduling policy and crash plan. It must be
	// safe to call concurrently.
	PolicyPlan(run int) (sched.Policy, sched.CrashPlan)
}

// Stateful is implemented by strategies that search over one persistent
// engine with checkpoint/restore instead of rebuilding a fresh instance and
// replaying the choice prefix per execution. Checkpoint/restore is the
// vectorized engine's, so a stateful drive needs Config.Frame: Drive builds
// one vexec.Exec from run 0's frame factory with state capture enabled, and
// calls BacktrackState in place of Backtrack at the end of every execution.
// The strategy restores the engine to its next frontier node (passing reset
// through to Restore so the caller can clear a process's body-external
// capture before it is put back) and returns false when the search is
// exhausted.
type Stateful interface {
	Strategy
	BacktrackState(e *vexec.Exec, t sched.Trace, res sched.Result, reset func(pid int)) bool
}

// Seeder is implemented by strategies that dictate the instance seed of each
// execution. Tree searches (SleepSet, SourceDPOR) pin every execution to one
// seed — the search is over schedules of a single deterministic system —
// while CoverageGuided picks the seed of the genome it is mutating. Drivers
// that build a fresh algorithm instance per execution must consult it.
type Seeder interface {
	// RunSeed returns the instance seed for execution run. For sequential
	// strategies it is only valid for the next execution to start.
	RunSeed(run int) uint64
}

// Config describes the system a strategy searches over.
type Config struct {
	// N is the population size.
	N int
	// Model is the fault model every execution runs under (the zero value is
	// the paper's: atomic registers, fail-stop crashes). Tree strategies
	// branch on the model's extra decisions — stale read choices and restarts
	// — exactly like on grants and crashes.
	Model shmem.Model
	// Names supplies run's original names (nil assigns pids 1..n).
	Names func(run int) []int64
	// Body builds a fresh, deterministic body for execution run. Tree
	// strategies re-execute the same system many times, so Body must return
	// an equivalent fresh instance every call for a fixed run seed.
	Body func(run int) sched.Body
	// Frame, when non-nil, is the vectorized form of Body: a frame-automaton
	// root factory for execution run, over a fresh instance equivalent to
	// Body(run)'s. It picks the engine: with Frame set every drive runs on
	// vexec — independent strategies (Seeded) fan across vexec.RunBatch,
	// sequential ones recycle one vexec.Exec — with results and fingerprints
	// bit-identical to the goroutine oracle's (the vexec differential
	// suite's contract); without it they run on goroutine controllers built
	// from Body. Stateful strategies require it.
	Frame func(run int) func(p *shmem.Proc) vexec.Frame
	// MaxExecutions hard-caps the number of executions regardless of the
	// strategy's own budget; 0 means the strategy decides.
	MaxExecutions int
	// OnResult observes each *completed* execution (abandoned ones are
	// skipped): its run index, recorded trace, and result. Returning false
	// stops the drive — how invariant checkers abort on first violation.
	// The trace aliases a buffer the drive reuses across executions: it is
	// only valid during the call, and a callback that retains it (to report a
	// violation, say) must copy it first.
	OnResult func(run int, t sched.Trace, res sched.Result) bool
	// Reset clears process pid's body-external per-execution capture (its
	// slot of the outcome arrays the frames write into) before a stateful
	// strategy's restore puts that process back. It is called only for the
	// lanes that moved since the capture: an unmoved lane is left untouched
	// — and its captured outcome with it, which is why Reset must clear
	// pid's slot only. Stateless strategies never call it — they rebuild via
	// Body or Frame instead. nil is fine when the frames capture nothing.
	Reset func(pid int)
}

func (cfg *Config) names(run int) []int64 {
	if cfg.Names != nil {
		return cfg.Names(run)
	}
	return nil
}

// newEngine constructs the execution engine for one sequential execution: a
// fresh system instance, fault model applied, on vexec when cfg.Frame is set
// and on a goroutine controller otherwise.
//
// prev, when non-nil, is the engine of the previous execution, offered for
// in-place reuse: the vectorized engine rewinds via Reset — recycling lanes,
// machines and bitmaps across the thousands of executions a tree walk drives
// — while the goroutine engine is rebuilt per run (its lanes are goroutines;
// construction IS the spawn).
func newEngine(cfg *Config, run int, prev sched.SearchEngine) sched.SearchEngine {
	if cfg.Frame != nil {
		e, ok := prev.(*vexec.Exec)
		if ok {
			e.Reset(cfg.names(run), cfg.Frame(run))
		} else {
			e = vexec.New(cfg.N, cfg.names(run), cfg.Frame(run))
		}
		if !cfg.Model.Atomic() {
			e.SetModel(cfg.Model)
		}
		return e
	}
	c := sched.NewController(cfg.N, cfg.names(run), cfg.Body(run))
	if !cfg.Model.Atomic() {
		c.SetModel(cfg.Model)
	}
	return c
}

// Drive runs the strategy's executions over fresh instances from cfg.Body
// until the strategy declines more, the execution cap is hit, or OnResult
// stops it. Strategies implementing Independent are fanned across workers
// via sched.ParallelRuns (their traces are not recorded — nothing consumes
// them); all others run sequentially with tracing enabled.
func Drive(s Strategy, cfg Config) Stats {
	if ind, ok := s.(Independent); ok {
		return driveParallel(s, ind, cfg)
	}
	if ss, ok := s.(Stateful); ok {
		return driveStateful(ss, cfg)
	}
	run := 0
	var tbuf sched.Trace // reused across executions; see Config.OnResult
	var e sched.SearchEngine
	for cfg.MaxExecutions <= 0 || run < cfg.MaxExecutions {
		e = newEngine(&cfg, run, e)
		e.EnableTrace()
		abandoned := false
		for live(e) {
			ch := s.Next(e)
			if ch.Pid == Halt.Pid {
				break
			}
			if ch.Pid < 0 {
				abandoned = true
				break
			}
			dispatch(e, ch)
		}
		if abandoned {
			e.Abort()
		}
		tbuf = e.TraceInto(tbuf)
		t, res := tbuf, e.Result()
		// Observe before Backtrack mutates the strategy's cursor: checkers
		// may read per-run state (the coverage-guided genome) that the next
		// run replaces.
		if !abandoned && cfg.OnResult != nil && !cfg.OnResult(run, t, res) {
			break
		}
		run++
		if !s.Backtrack(t, res) {
			break
		}
	}
	return s.Stats()
}

// live reports whether the in-flight execution still has decisions: a pending
// process, or (recovery models) a crashed process the adversary may restart.
func live(e sched.Engine) bool {
	if e.PendingCount() > 0 {
		return true
	}
	return restartableMask(e) != 0
}

// dispatch executes one strategy choice on the engine.
func dispatch(e sched.Engine, ch Choice) {
	switch {
	case ch.Restart:
		e.Restart(ch.Pid)
	case ch.Crash:
		e.Crash(ch.Pid)
	case ch.Stale > 0:
		e.StepStale(ch.Pid, ch.Stale-1)
	case ch.K > 1:
		e.StepN(ch.Pid, ch.K)
	default:
		e.Step(ch.Pid)
	}
}

// restartableMask collects the crashed processes Restart currently accepts.
func restartableMask(e sched.Engine) uint64 {
	if !e.Model().Recovery {
		return 0
	}
	var m uint64
	for pid := 0; pid < e.N(); pid++ {
		if e.CanRestart(pid) {
			m |= 1 << uint(pid)
		}
	}
	return m
}

// driveStateful is the checkpoint/restore drive: one vexec engine, one
// instance, built from run 0's frame factory and never rebuilt. The strategy
// extends the in-flight execution decision by decision; at every backtrack
// the strategy restores the engine to the frontier node — no grant is ever
// re-executed, so the Replayed accounting of stateless tree search stays at
// zero by construction.
func driveStateful(s Stateful, cfg Config) Stats {
	if cfg.Frame == nil {
		panic(fmt.Sprintf("explore: stateful strategy %s needs Config.Frame (checkpoint/restore runs on vexec); supply Frame or use a stateless strategy such as SleepSet", s.Name()))
	}
	e := newEngine(&cfg, 0, nil).(*vexec.Exec)
	e.EnableState()
	// The loop shape mirrors the stateless drive exactly: BacktrackState is
	// called on every finished execution — including the one that hits
	// MaxExecutions — so the cap never loses an execution from the stats or
	// its races from the backtrack sets.
	run := 0
	var tbuf sched.Trace // reused across executions; see Config.OnResult
	for cfg.MaxExecutions <= 0 || run < cfg.MaxExecutions {
		abandoned := false
		for live(e) {
			ch := s.Next(e)
			if ch.Pid == Halt.Pid {
				break
			}
			if ch.Pid < 0 {
				abandoned = true
				break
			}
			dispatch(e, ch)
		}
		tbuf = e.TraceInto(tbuf)
		t, res := tbuf, e.Result()
		if !abandoned && cfg.OnResult != nil && !cfg.OnResult(run, t, res) {
			break
		}
		run++
		if !s.BacktrackState(e, t, res, cfg.Reset) {
			break
		}
	}
	e.Abort() // release a partially driven final execution, if any
	return s.Stats()
}

// driveParallel is the Independent fast path: the exact fan-out shape the
// seeded explorer has always used, preserved so the default strategy changes
// nothing about existing campaigns (schedules, fingerprints, parallelism).
// When the config carries a Frame factory, the fan-out runs on the
// vectorized engine instead of goroutine controllers — same results, same
// fingerprints, an order of magnitude fewer nanoseconds per grant.
func driveParallel(s Strategy, ind Independent, cfg Config) Stats {
	m := ind.Runs()
	if cfg.MaxExecutions > 0 && m > cfg.MaxExecutions {
		m = cfg.MaxExecutions
	}
	var results []sched.Result
	if cfg.Frame != nil {
		results = vexec.RunBatch(m, func(run int) vexec.BatchSpec {
			policy, plan := ind.PolicyPlan(run)
			return vexec.BatchSpec{
				N:      cfg.N,
				Names:  cfg.names(run),
				Model:  cfg.Model,
				Policy: policy,
				Plan:   plan,
				Root:   cfg.Frame(run),
			}
		})
	} else {
		results = sched.ParallelRuns(m, func(run int) sched.RunSpec {
			policy, plan := ind.PolicyPlan(run)
			return sched.RunSpec{
				N:      cfg.N,
				Names:  cfg.names(run),
				Model:  cfg.Model,
				Policy: policy,
				Plan:   plan,
				Body:   cfg.Body(run),
			}
		})
	}
	executions := 0
	for run, res := range results {
		executions++
		if cfg.OnResult != nil && !cfg.OnResult(run, nil, res) {
			break
		}
	}
	st := s.Stats()
	st.Executions += executions
	for _, res := range results[:executions] {
		st.Explored += int(res.TotalSteps())
		for _, crashed := range res.Crashed {
			if crashed {
				st.Explored++ // a crash grant is a decision too
			}
		}
		for _, r := range res.Restarts {
			// Each restart is one decision and implies one crash grant the
			// final Crashed flags no longer show.
			st.Explored += 2 * r
		}
	}
	return st
}

// policyChoice derives one strategy Choice from a (policy, crash plan) pair,
// mirroring sched.Run's decision shape exactly — including the fault-model
// extensions: a plan implementing sched.RestartPlan is offered every crashed
// process first, a pending-free state with restarts declined halts, and a
// policy implementing sched.StalePolicy picks among a weak read's stale
// alternatives.
func policyChoice(e sched.Engine, policy sched.Policy, plan sched.CrashPlan) Choice {
	if rp, ok := plan.(sched.RestartPlan); ok && e.Model().Recovery {
		for pid := 0; pid < e.N(); pid++ {
			if e.CanRestart(pid) && rp.ShouldRestart(pid, e.Proc(pid).Restarts()) {
				return Choice{Pid: pid, Restart: true}
			}
		}
	}
	if e.PendingCount() == 0 {
		return Halt
	}
	pid := policy.Next(e)
	if plan != nil && plan.ShouldCrash(pid, e.Proc(pid).Steps(), e.Intent(pid)) {
		return Choice{Pid: pid, Crash: true}
	}
	if sp, ok := policy.(sched.StalePolicy); ok && e.Model().Regs != shmem.RegAtomic {
		if k := e.StaleCount(pid); k > 0 {
			s := sp.PickStale(e, pid, k)
			sched.CheckStaleChoice(s, k)
			if s > 0 {
				return Choice{Pid: pid, Stale: s}
			}
		}
	}
	return Choice{Pid: pid}
}

// independent reports whether two transitions — (pid, crash?, posted op) —
// commute. Same-process transitions never do (program order); a crash
// commutes with anything of another process.
func independent(p int, pCrash bool, pIn shmem.Intent, q int, qCrash bool, qIn shmem.Intent) bool {
	if p == q {
		return false
	}
	if pCrash || qCrash {
		return true
	}
	return pIn.Commutes(qIn)
}

// enabledMask collects the pending set as a bitmask. Tree strategies are
// built for tiny populations; 64 pids is far beyond what an exhaustive or
// DPOR search can sweep anyway.
func enabledMask(e sched.Engine) uint64 {
	if e.N() > 64 {
		panic(fmt.Sprintf("explore: tree strategies support at most 64 processes, got %d", e.N()))
	}
	var m uint64
	for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
		m |= 1 << uint(pid)
	}
	return m
}
