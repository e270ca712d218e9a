// Package explore is the tree-search layer between the lockstep scheduler
// (internal/sched) and the exhaustive model checker (internal/model), its
// only client. A Strategy decides, at every decision point of an in-flight
// execution, which pending process to grant (or crash), and — when the
// execution completes — consumes its recorded Trace to steer the next one.
// Two strategies ship:
//
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
//
// Seeded sampling is not a strategy: internal/adversary fans its independent
// runs straight over the engines, one check.Instance per run.
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

// Choice is one scheduling decision: grant pid one step, or crash it before
// its posted operation executes. A negative Pid
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
	// SourceDPOR enters no dead crash branch, so its partials are step
	// choices into sleep-blocked nodes only.
	Partial int
	// Explored counts distinct scheduling decisions executed — the "states
	// visited" of the search. Stateless tree strategies re-execute committed
	// prefixes to reconstruct state; those grants revisit states rather than
	// explore new ones and are counted in Replayed, not here.
	Explored int
	// Replayed counts prefix grants re-executed during state reconstruction
	// (the stateless SleepSet only) — the bookkeeping cost of statelessness.
	// Total grants performed = Explored + Replayed. Stateful strategies
	// (source DPOR) reconstruct by checkpoint restore instead and always
	// report 0.
	Replayed int
	// Restored counts checkpoint restores performed by stateful strategies —
	// the vectorized engine's copy of the lanes that moved, which replaces
	// each Replayed prefix re-execution.
	Restored int
	// Pruned counts enabled choices the strategy skipped because partial-order
	// reasoning (sleep sets, backtrack sets) showed them redundant, and, for
	// SourceDPOR, the dead crash branches it settles unwalked.
	Pruned int
	// RaceEvents counts happens-before rows derived by race analysis
	// (source-DPOR only): the incremental layer derives one row per distinct
	// trace event, where the rebuild reference kept in the package's tests
	// re-derives every row of the whole trace at every backtrack.
	RaceEvents int
	// RaceNs estimates the wall-clock nanoseconds spent in race analysis
	// (source-DPOR only): one backtrack in raceSample is timed and its time
	// counted raceSample times, since reading the clock around every one
	// costs a visible share of the walk. Timing, not tree shape: determinism
	// comparisons must ignore it.
	RaceNs int64
	// Complete reports that the strategy exhausted its search space: every
	// schedule (modulo commuting-grant equivalence) has been covered. Budget
	// exhaustion leaves it false.
	Complete bool
}

// Strategy is the tree-search layer. Drive calls Next at every decision
// point of the in-flight execution and Backtrack when it ends (completed or
// abandoned); Backtrack returns false when the strategy wants no further
// executions. A Strategy instance drives one sequential search and is not
// safe for concurrent use.
type Strategy interface {
	// Next picks the decision at the current point: the engine exposes
	// the pending set, each pending process's posted Intent, and the
	// commutation metadata (shmem.Intent.Commutes) — exactly the paper's adversary
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

// Stateful is implemented by strategies that search over one persistent
// engine with checkpoint/restore instead of rebuilding a fresh instance and
// replaying the choice prefix per execution. Checkpoint/restore is the
// vectorized engine's, so a stateful drive needs Config.Frame: Drive builds
// one vexec.Exec from run 0's frame factory with state capture enabled, and
// calls BacktrackState in place of Backtrack at the end of every execution.
// The strategy restores the engine to its next frontier node (passing reset
// through to Restore so the caller can clear a process's body-external
// capture before it is put back) and returns false when the search is
// exhausted. As in Config.OnResult, the trace and the result's slices alias
// buffers the drive refills for the next execution: they are valid only
// during the call.
type Stateful interface {
	Strategy
	BacktrackState(e *vexec.Exec, t sched.Trace, res sched.Result, reset func(pid int)) bool
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
	// Names are every execution's original names (nil assigns pids 1..n).
	Names []int64
	// Body builds a fresh, deterministic body for execution run. Tree
	// strategies re-execute the same system many times, so Body must return
	// an equivalent fresh instance every call.
	Body func(run int) sched.Body
	// Frame, when non-nil, is the vectorized form of Body: a frame-automaton
	// root factory for execution run, over a fresh instance equivalent to
	// Body(run)'s. It picks the engine: with Frame set every drive runs on
	// one recycled vexec.Exec, with results and fingerprints bit-identical
	// to the goroutine oracle's (the vexec differential suite's contract);
	// without it executions run on goroutine controllers built from Body.
	// Stateful strategies require it.
	Frame func(run int) func(p *shmem.Proc) vexec.Frame
	// OnResult observes each *completed* execution (abandoned ones are
	// skipped): its run index, recorded trace, and result. Returning false
	// stops the drive — how invariant checkers abort on first violation.
	// The trace aliases a buffer the drive reuses across executions, and so,
	// on the stateful drive, do the result's Steps, Crashed and Restarts
	// slices: they are only valid during the call, and a callback that
	// retains them (to report a violation, say) must copy them first.
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
			e.Reset(cfg.Names, cfg.Frame(run))
		} else {
			e = vexec.New(cfg.N, cfg.Names, cfg.Frame(run))
		}
		if !cfg.Model.Atomic() {
			e.SetModel(cfg.Model)
		}
		return e
	}
	c := sched.NewController(cfg.N, cfg.Names, cfg.Body(run))
	if !cfg.Model.Atomic() {
		c.SetModel(cfg.Model)
	}
	return c
}

// Drive runs the strategy's executions until the strategy declines more or
// OnResult stops it. Stateful strategies search one engine through
// checkpoint/restore; all others run sequentially over fresh instances from
// cfg.Frame or cfg.Body, with tracing enabled.
func Drive(s Strategy, cfg Config) Stats {
	if ss, ok := s.(Stateful); ok {
		return driveStateful(ss, cfg)
	}
	run := 0
	var tbuf sched.Trace // reused across executions; see Config.OnResult
	var e sched.SearchEngine
	for {
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
		panic(fmt.Sprintf("explore: stateful strategy %T needs Config.Frame (checkpoint/restore runs on vexec); supply Frame or use a stateless strategy such as SleepSet", s))
	}
	e := newEngine(&cfg, 0, nil).(*vexec.Exec)
	e.EnableState()
	// The loop shape mirrors the stateless drive.
	run := 0
	var tbuf sched.Trace // reused across executions; see Config.OnResult
	var res sched.Result // likewise: its slices are refilled per execution
	for {
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
		e.ResultInto(&res)
		if !abandoned && cfg.OnResult != nil && !cfg.OnResult(run, tbuf, res) {
			break
		}
		run++
		if !s.BacktrackState(e, tbuf, res, cfg.Reset) {
			break
		}
	}
	e.Abort() // release a partially driven final execution, if any
	return s.Stats()
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

// enabledMask returns the pending set as a bitmask: the engine's first
// pending word. Tree strategies are built for tiny populations; 64 pids is
// far beyond what an exhaustive or DPOR search can sweep anyway.
func enabledMask(e sched.Engine) uint64 {
	if e.N() > 64 {
		panic(fmt.Sprintf("explore: tree strategies support at most 64 processes, got %d", e.N()))
	}
	return e.Pending()[0]
}
