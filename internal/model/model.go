// Package model is the exhaustive small-n model checker: for tiny
// populations it walks the *complete* schedule-and-crash tree of an
// algorithm and checks every complete execution against the algorithm's
// invariant suite. A run that finishes with Complete=true is a proof, not a
// sample: every schedule the paper's asynchronous adversary can produce, and
// every crash pattern up to the configured cap, has been covered up to
// reordering of commuting grants — which the invariants (functions of the
// final state) cannot distinguish anyway.
//
// Two walkers cover the tree:
//
//   - WalkerSourceDPOR (the default): the stateful search of
//     explore.NewSourceDPOR — source-set partial-order reduction with sleep
//     sets, and checkpoint/restore instead of prefix replay. One vexec
//     instance is built for the whole search and rewound at every
//     backtrack; Report.Replayed is zero by construction. Its proofs are
//     exact: no node is cut by a state hash, so no hash enters the verdict.
//     It needs frame automata: a renamer without vexec.FrameRenamer is
//     walked by WalkerSleepSet instead, and Report.Walker records the
//     substitution.
//
//   - WalkerSleepSet: the stateless exhaustive DFS of explore.NewSleepSet —
//     fresh instance plus prefix replay per execution. Slower and larger,
//     kept as the independent cross-check on the goroutine oracle.
//
// The *execution* engine follows from the renamer: one that implements
// vexec.FrameRenamer walks on the vectorized frame engine (vexec.Exec), any
// other on the goroutine oracle (sched.Controller). The engines are
// bit-identical on the decision surface, so a sleep-set walk visits the same
// tree on either; tests reach the oracle by hiding FrameRename behind a
// wrapper struct. Report.Engine records which engine ran.
//
// This is the ROADMAP's "prove, don't sample" item: Explore samples the
// adversary's space at every size, the model checker closes it at small n,
// and internal/conformance records per algorithm which sizes are proven
// versus sampled.
package model

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// Walker selects the tree-walking search strategy.
type Walker int

const (
	// WalkerSourceDPOR is the stateful source-set walker with sleep sets and
	// checkpoint/restore — the default. Its proofs are exact.
	WalkerSourceDPOR Walker = iota
	// WalkerSleepSet is the stateless exhaustive sleep-set DFS (the
	// independent cross-check).
	WalkerSleepSet
)

func (w Walker) String() string {
	switch w {
	case WalkerSourceDPOR:
		return "sourcedpor"
	case WalkerSleepSet:
		return "sleepset"
	default:
		return fmt.Sprintf("Walker(%d)", int(w))
	}
}

// Engine names the execution engine a walk ran on (Report.Engine). Both
// engines are bit-identical on the decision surface (internal/vexec's
// differential contract), so a Complete report is a proof on either.
type Engine int

const (
	// EngineGoroutine is the goroutine oracle (sched.Controller): the engine
	// of renamers without frame automata.
	EngineGoroutine Engine = iota
	// EngineVexec is the vectorized frame engine (vexec.Exec): the engine of
	// every renamer that implements vexec.FrameRenamer.
	EngineVexec
)

func (e Engine) String() string {
	switch e {
	case EngineGoroutine:
		return "goroutine"
	case EngineVexec:
		return "vexec"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options tunes a model-checking run.
type Options struct {
	// MaxCrashes caps crash branching: at every decision point with fewer
	// injected crashes, crashing each pending process is explored as its own
	// branch. 0 walks the crash-free schedule tree only; n-1 covers every
	// pattern that leaves a survivor. Crashing all n is legal in the paper's
	// model but proves nothing extra about final states (the suite's
	// liveness checkers gate on survivors), so n-1 is the customary cap.
	MaxCrashes int
	// Model is the fault model every execution runs under (see shmem.Model);
	// the zero value is the paper's: atomic registers, fail-stop crashes. The
	// tree engines branch on the model's extra decisions — each stale
	// alternative of a weak-register read, each restart of a crashed process
	// (bounded by Model.MaxRestarts, which SetModel defaults to n), and the
	// halt-versus-restart choice at pending-free states — so Complete under a
	// fault model proves the suite over every schedule, crash pattern, stale
	// choice and restart pattern in the cell.
	Model shmem.Model
	// Budget caps executions (complete + pruned prefixes); 0 exhausts the
	// tree. A budgeted run that stops early reports Complete=false — it
	// degrades to a systematic sample, never to a false proof.
	Budget int
	// Walker selects the search strategy; the zero value is WalkerSourceDPOR,
	// which needs frame automata (see the package doc).
	Walker Walker
}

// Report is the outcome of one model-checking run.
type Report struct {
	Label      string
	N          int
	Model      shmem.Model
	Walker     Walker
	Engine     Engine // vexec exactly when the renamer implements vexec.FrameRenamer
	Executions int    // complete executions checked
	Partial    int    // sleep-blocked prefixes abandoned (source-DPOR enters no dead crash branch)
	Explored   int    // scheduling decisions executed
	Pruned     int    // choices skipped as commuting-equivalent, and source-DPOR's dead crash branches
	Replayed   int    // prefix grants re-executed (stateless engine only)
	Restored   int    // checkpoint restores (stateful engine only)
	Deduped    int    // always 0: no walker cuts a state by hash; kept because perfbench reads it
	// RaceEvents counts happens-before rows derived by source-DPOR's race
	// analysis, one per trace event its incremental layer digests, and
	// RaceTime estimates the wall-clock spent there from a sample of the
	// backtracks (explore.Stats.RaceNs). Both are work accounting, not tree
	// shape: differential comparisons of Reports across engines must exclude
	// RaceTime (timing).
	RaceEvents int
	RaceTime   time.Duration
	Complete   bool // the full tree was exhausted: the suite is proven at this n
	Elapsed    time.Duration
	// Violation is the first invariant failure, with the schedule that
	// produced it; nil for a clean run.
	Violation *Violation
}

// Violation is an invariant failure found by the checker, carrying the full
// grant schedule as its reproducer.
type Violation struct {
	Err   error
	Trace sched.Trace
}

func (v *Violation) String() string {
	return fmt.Sprintf("%v\n  schedule: %s", v.Err, v.Trace)
}

// Proven reports whether the run constitutes a proof: the tree was exhausted
// and no execution violated the suite.
func (r *Report) Proven() bool { return r.Complete && r.Violation == nil }

// Summary renders a one-line account of the run.
func (r *Report) Summary() string {
	verdict := "SAMPLED (budget exhausted)"
	if r.Violation != nil {
		verdict = "VIOLATED"
	} else if r.Complete {
		verdict = "PROVEN"
	}
	s := fmt.Sprintf("%s n=%d", r.Label, r.N)
	if !r.Model.Atomic() {
		s += fmt.Sprintf(" model=%s", r.Model)
	}
	s += fmt.Sprintf(" [%s@%s]: %s — %d executions, %d pruned prefixes, %d decisions (%d pruned", r.Walker, r.Engine, verdict, r.Executions, r.Partial, r.Explored, r.Pruned)
	if r.Replayed > 0 {
		s += fmt.Sprintf(", %d replayed", r.Replayed)
	}
	if r.Restored > 0 {
		s += fmt.Sprintf(", %d restored", r.Restored)
	}
	return s + fmt.Sprintf(") in %v", r.Elapsed.Round(time.Millisecond))
}

// Check walks the complete schedule-and-crash tree of the renamer built by
// new (which must return an equivalent fresh deterministic instance on every
// call) for n contenders holding origs (nil assigns 1..n), checking every
// complete execution against suite. It stops at the first violation.
func Check(label string, new func() check.Renamer, n int, origs []int64, suite check.Suite, opt Options) Report {
	cur := check.NewInstance(new(), n, origs)
	origs = cur.Origs // nil resolves to 1..n once; every later instance shares it
	// Resolve the execution engine once, against the first instance: the walk
	// runs on vexec exactly when the algorithm ships frame automata.
	engine := EngineGoroutine
	if cur.Frames() != nil {
		engine = EngineVexec
	} else if opt.Walker == WalkerSourceDPOR {
		// Checkpoint/restore is vexec's alone, so a renamer without frame
		// automata is walked by the stateless sleep-set walker on the
		// oracle; Report.Walker says so.
		opt.Walker = WalkerSleepSet
	}
	rep := Report{Label: label, N: n, Model: opt.Model, Walker: opt.Walker, Engine: engine}
	start := time.Now()

	var strat explore.Strategy
	if opt.Walker == WalkerSleepSet {
		strat = explore.NewSleepSet(opt.Budget, opt.MaxCrashes)
	} else {
		strat = explore.NewSourceDPOR(opt.Budget, opt.MaxCrashes)
	}
	// fresh returns the system execution run drives: the stateful walker
	// rewinds the one instance, the stateless walker builds a new one per
	// execution, which re-arms the last one's lane frames (Reuse). Either
	// way its outcomes start cleared.
	fresh := func(run int) *check.Instance {
		if run > 0 {
			next := check.NewInstance(new(), n, origs)
			next.Reuse(cur)
			cur = next
		}
		return cur
	}
	// One record serves every execution: Record refills it in place, so the
	// walk allocates nothing per execution to check it.
	var record check.Run
	cfg := explore.Config{
		N:     n,
		Model: opt.Model,
		Names: origs,
		Body:  func(run int) sched.Body { return fresh(run).Body() },
		Reset: func(pid int) { cur.ResetPid(pid) }, // stateful walker: same system, rewound
		OnResult: func(run int, t sched.Trace, res sched.Result) bool {
			cur.Record(&record, res)
			if err := suite.Verdict(&record); err != nil {
				// t aliases the drive's reused trace buffer; the violation is
				// the report's durable artifact, so copy.
				rep.Violation = &Violation{Err: err, Trace: append(sched.Trace(nil), t...)}
				return false
			}
			return true
		},
	}
	if engine == EngineVexec {
		cfg.Frame = func(run int) func(p *shmem.Proc) vexec.Frame { return fresh(run).Frames() }
	}

	stats := explore.Drive(strat, cfg)
	rep.Executions = stats.Executions
	rep.Partial = stats.Partial
	rep.Explored = stats.Explored
	rep.Pruned = stats.Pruned
	rep.Replayed = stats.Replayed
	rep.Restored = stats.Restored
	rep.RaceEvents = stats.RaceEvents
	rep.RaceTime = time.Duration(stats.RaceNs)
	rep.Complete = stats.Complete && rep.Violation == nil
	rep.Elapsed = time.Since(start)
	return rep
}
