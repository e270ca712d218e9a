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
//     explore.NewSourceDPOR — source-set partial-order reduction, state-hash
//     dedup of revisited states, and checkpoint/restore instead of prefix
//     replay. One vexec instance is built for the whole search and rewound
//     at every backtrack; Report.Replayed is zero by construction. Proofs are
//     modulo the 128-bit state hash: merging two genuinely distinct states
//     requires a collision in both independent channels. It needs frame
//     automata: a renamer without vexec.FrameRenamer is walked by
//     WalkerSleepSet instead, and Report.Walker records the substitution.
//
//   - WalkerSleepSet: the stateless exhaustive DFS of explore.NewSleepSet —
//     fresh instance plus prefix replay per execution, no hashing anywhere.
//     Slower and larger, kept as the hash-free cross-check.
//
// The *execution* engine follows from the renamer: one that implements
// vexec.FrameRenamer walks on the vectorized frame engine (vexec.Exec), any
// other on the goroutine oracle (sched.Controller). The engines are
// bit-identical on the decision surface, so a sleep-set walk visits the same
// tree on either; tests reach the oracle by hiding FrameRename behind a
// wrapper struct. Report.Engine records which engine ran.
//
// Workers > 1 shards the root decisions of the tree across goroutines
// (explore.DriveParallel): each enabled first grant is searched as an
// independent subtree over its own instance.
//
// This is the ROADMAP's "prove, don't sample" item: Explore samples the
// adversary's space at every size, the model checker closes it at small n,
// and internal/conformance records per algorithm which sizes are proven
// versus sampled.
package model

import (
	"fmt"
	"sync"
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
	// WalkerSourceDPOR is the stateful source-set walker with state dedup
	// and checkpoint/restore — the default.
	WalkerSourceDPOR Walker = iota
	// WalkerSleepSet is the stateless exhaustive sleep-set DFS (hash-free
	// cross-check).
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

// RaceMode selects the source-DPOR race-analysis implementation (see
// explore.RaceAnalysis). Every mode walks the same tree and produces the same
// verdict; they differ in how much work each backtrack costs, and
// RaceDifferential additionally cross-checks the two on every backtrack.
type RaceMode int

const (
	// RaceIncremental (the default) maintains the happens-before relation
	// incrementally across backtracks, truncated by watermark alongside the
	// engine's checkpoint restores.
	RaceIncremental RaceMode = iota
	// RaceRebuild re-derives the relation from the whole trace at every
	// backtrack — the reference TestIncrementalHBDifferential checks the
	// incremental layer against.
	RaceRebuild
	// RaceDifferential runs both implementations on every backtrack and
	// panics on any divergence. Testing only.
	RaceDifferential
)

func (m RaceMode) String() string {
	switch m {
	case RaceIncremental:
		return "incremental"
	case RaceRebuild:
		return "rebuild"
	case RaceDifferential:
		return "differential"
	default:
		return fmt.Sprintf("RaceMode(%d)", int(m))
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
	// Workers > 1 shards the root decisions across that many goroutines.
	Workers int
	// Race selects the source-DPOR race-analysis implementation; the zero
	// value (RaceIncremental) is the default. Ignored by the stateless
	// walkers.
	Race RaceMode
	// NoDedup disables state-hash dedup in the source-DPOR engine: a pure
	// partial-order walk with no hashing anywhere in the proof. Dedup pays
	// off on state-converging systems; on systems whose read histories never
	// converge it is bookkeeping overhead, and benchmarks isolate its
	// contribution with this switch.
	NoDedup bool
}

// Report is the outcome of one model-checking run.
type Report struct {
	Label      string
	N          int
	Model      shmem.Model
	Walker     Walker
	Engine     Engine // vexec exactly when the renamer implements vexec.FrameRenamer
	Workers    int
	Executions int // complete executions checked
	Partial    int // redundant prefixes cut by sleep sets or state dedup
	Explored   int // scheduling decisions executed
	Pruned     int // enabled choices skipped as commuting-equivalent
	Replayed   int // prefix grants re-executed (stateless engine only)
	Restored   int // checkpoint restores (stateful engine only)
	Deduped    int // nodes cut as already-explored states (stateful engine)
	// RaceEvents counts happens-before rows derived by source-DPOR's race
	// analysis — per-event with the incremental layer, per-trace-per-leaf
	// with the rebuild reference — and RaceTime the wall-clock spent there.
	// Both are work accounting, not tree shape: differential comparisons of
	// Reports across engines or race modes must exclude RaceTime (timing)
	// and, across race modes, RaceEvents (the gap is the point).
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
	s += fmt.Sprintf(" [%s@%s", r.Walker, r.Engine)
	if r.Workers > 1 {
		s += fmt.Sprintf(" x%d", r.Workers)
	}
	s += fmt.Sprintf("]: %s — %d executions, %d pruned prefixes, %d decisions (%d pruned", verdict, r.Executions, r.Partial, r.Explored, r.Pruned)
	if r.Deduped > 0 {
		s += fmt.Sprintf(", %d deduped", r.Deduped)
	}
	if r.Replayed > 0 {
		s += fmt.Sprintf(", %d replayed", r.Replayed)
	}
	if r.Restored > 0 {
		s += fmt.Sprintf(", %d restored", r.Restored)
	}
	return s + fmt.Sprintf(") in %v", r.Elapsed.Round(time.Millisecond))
}

// instance is one system under check: a fresh renamer with its per-pid
// outcome capture. The stateful engine uses exactly one; the stateless
// engine builds one per execution; the sharded parallel drive builds one per
// root shard.
type instance struct {
	renamer check.Renamer
	got     []int64
	oks     []bool
}

func (in *instance) reset() {
	for i := range in.got {
		in.resetPid(i)
	}
}

// resetPid clears process pid's outcome: the stateful walker's per-lane
// restore hook (explore.Config.Reset).
func (in *instance) resetPid(pid int) { in.got[pid], in.oks[pid] = 0, false }

func (in *instance) body() sched.Body {
	return func(p *shmem.Proc) {
		in.got[p.ID()], in.oks[p.ID()] = in.renamer.Rename(p, p.Name())
	}
}

// frames is the vectorized form of body: one capture-wrapped frame automaton
// per lane, writing the lane's outcome into the same arrays body assigns.
// Valid only when the renamer ships frame automata.
func (in *instance) frames() func(p *shmem.Proc) vexec.Frame {
	fr := in.renamer.(vexec.FrameRenamer)
	return func(p *shmem.Proc) vexec.Frame {
		return vexec.Capture(fr.FrameRename(p.Name()), &in.got[p.ID()], &in.oks[p.ID()])
	}
}

// Check walks the complete schedule-and-crash tree of the renamer built by
// new (which must return an equivalent fresh deterministic instance on every
// call) for n contenders holding origs (nil assigns 1..n), checking every
// complete execution against suite. It stops at the first violation.
func Check(label string, new func() check.Renamer, n int, origs []int64, suite check.Suite, opt Options) Report {
	if origs == nil {
		origs = make([]int64, n)
		for i := range origs {
			origs[i] = int64(i + 1)
		}
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	mkInstance := func() *instance {
		return &instance{renamer: new(), got: make([]int64, n), oks: make([]bool, n)}
	}
	// Resolve the execution engine once, against a probe instance: the walk
	// runs on vexec exactly when the algorithm ships frame automata.
	engine := EngineGoroutine
	if _, ok := mkInstance().renamer.(vexec.FrameRenamer); ok {
		engine = EngineVexec
	} else if opt.Walker == WalkerSourceDPOR {
		// Checkpoint/restore is vexec's alone, so a renamer without frame
		// automata is walked by the stateless sleep-set walker on the
		// oracle; Report.Walker says so.
		opt.Walker = WalkerSleepSet
	}
	rep := Report{Label: label, N: n, Model: opt.Model, Walker: opt.Walker, Engine: engine, Workers: opt.Workers}
	start := time.Now()

	var vmu sync.Mutex // parallel shards report violations concurrently
	// checkRun validates one completed execution; shared by every drive
	// shape. It must be called with the instance that ran it.
	checkRun := func(in *instance, t sched.Trace, res sched.Result) *Violation {
		var err error
		if res.Err != nil {
			err = fmt.Errorf("process panic: %w", res.Err)
		} else {
			err = suite.Check(check.NewRun(origs, in.got, in.oks, res, in.renamer.MaxName()))
		}
		if err != nil {
			// t aliases the drive's reused trace buffer; the violation is the
			// report's durable artifact, so copy.
			return &Violation{Err: err, Trace: append(sched.Trace(nil), t...)}
		}
		return nil
	}
	mkStrategy := func() explore.Strategy {
		switch opt.Walker {
		case WalkerSleepSet:
			return explore.NewSleepSet(1, opt.Budget, opt.MaxCrashes)
		default:
			s := explore.NewSourceDPOR(1, opt.Budget, opt.MaxCrashes)
			if opt.NoDedup {
				s.DisableDedup()
			}
			switch opt.Race {
			case RaceRebuild:
				s.SetRaceAnalysis(explore.RaceRebuild)
			case RaceDifferential:
				s.SetRaceAnalysis(explore.RaceDifferential)
			}
			return s
		}
	}
	configFor := func(in *instance, fresh func() *instance) explore.Config {
		cur := in
		cfg := explore.Config{
			N:     n,
			Model: opt.Model,
			Names: func(run int) []int64 { return origs },
			Body: func(run int) sched.Body {
				if run > 0 {
					// Stateless walker: a fresh system per execution.
					cur = fresh()
				}
				cur.reset()
				return cur.body()
			},
			Reset: func(pid int) { cur.resetPid(pid) }, // stateful walker: same system, rewound
			OnResult: func(run int, t sched.Trace, res sched.Result) bool {
				if v := checkRun(cur, t, res); v != nil {
					vmu.Lock()
					if rep.Violation == nil {
						rep.Violation = v
					}
					vmu.Unlock()
					return false
				}
				return true
			},
		}
		if engine == EngineVexec {
			cfg.Frame = func(run int) func(p *shmem.Proc) vexec.Frame {
				if run > 0 {
					cur = fresh()
				}
				cur.reset()
				return cur.frames()
			}
		}
		return cfg
	}

	var stats explore.Stats
	if opt.Workers > 1 {
		stats = explore.DriveParallel(explore.ParallelSpec{
			Workers:    opt.Workers,
			N:          n,
			MaxCrashes: opt.MaxCrashes,
			Probe: func() explore.Config {
				in := mkInstance()
				return explore.Config{N: n, Names: func(int) []int64 { return origs }, Body: func(int) sched.Body { return in.body() }}
			},
			NewStrategy: mkStrategy,
			Config: func(shard int) explore.Config {
				in := mkInstance()
				return configFor(in, mkInstance)
			},
		})
	} else {
		stats = explore.Drive(mkStrategy(), configFor(mkInstance(), mkInstance))
	}
	rep.Executions = stats.Executions
	rep.Partial = stats.Partial
	rep.Explored = stats.Explored
	rep.Pruned = stats.Pruned
	rep.Replayed = stats.Replayed
	rep.Restored = stats.Restored
	rep.Deduped = stats.Deduped
	rep.RaceEvents = stats.RaceEvents
	rep.RaceTime = time.Duration(stats.RaceNs)
	rep.Complete = stats.Complete && rep.Violation == nil
	rep.Elapsed = time.Since(start)
	return rep
}
