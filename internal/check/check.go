// Package check turns the paper's correctness claims into first-class
// invariant checkers that any renaming execution can be validated against.
// The theorems of the paper (Thms 1-4, Lemmas 4-5) are quantified over every
// asynchronous schedule and crash pattern; the checkers in this package are
// the machine-readable form of those obligations:
//
//   - Exclusive: no two processes ever hold the same new name (the safety
//     property every algorithm must satisfy unconditionally);
//   - NameRange: acquired names stay within the claimed bound M;
//   - StepBound: no process exceeds the claimed wait-free local-step bound;
//   - AllRenamed / HalfRenamed: the liveness guarantee appropriate to the
//     algorithm (everyone renamed, or the Lemma 4 majority);
//   - Returned: wait-freedom's observable core — every non-crashed process
//     comes back with a decision.
//
// Instance is the one harness that runs a renamer: it holds the renamer,
// the original names and the per-pid Rename results, in the goroutine form
// (Body, which stores each result) and the frame-automaton form (Frames,
// whose lane frames an instance re-arms and hands to the next one, Reuse;
// the results stay in the engine until Collect reads them), and refills the
// Run record the checkers consume (Record). Campaigns, replays, shrinks
// and proof walks all run through it. Drive executes k contenders through
// an Instance on the goroutine oracle under an arbitrary policy and crash
// plan. The package depends only on shmem, sched and vexec — the Renamer
// interface is structural, identical to core.Renamer — so the core package's
// own tests (and the adversary explorer) can use it without import cycles.
package check

import (
	"fmt"
	"sort"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// Renamer is the structural mirror of core.Renamer: a one-shot renaming
// object. Every core algorithm satisfies it; so does any test fixture.
type Renamer interface {
	Rename(p *shmem.Proc, orig int64) (int64, bool)
	MaxName() int64
	Registers() int
}

// Run records one complete driven execution of a Renamer, in the form the
// invariant checkers consume.
type Run struct {
	K       int           // contenders started
	Origs   []int64       // original names, by pid
	Names   map[int]int64 // pid -> acquired name, for non-crashed ok processes
	Failed  []int         // non-crashed pids that returned ok=false, ascending
	Res     sched.Result  // scheduler summary (steps, crashes, fingerprint)
	MaxName int64         // the instance's claimed name bound (Renamer.MaxName)
}

// Crashes returns how many processes were crash-injected.
func (r *Run) Crashes() int {
	n := 0
	for _, c := range r.Res.Crashed {
		if c {
			n++
		}
	}
	return n
}

// Survivors returns how many processes were not crash-injected.
func (r *Run) Survivors() int { return r.K - r.Crashes() }

// Checker is one invariant applied to a completed run. Check returns nil
// when the run satisfies the invariant and a descriptive error otherwise. It
// must not retain r: a proof walk refills one record per execution (Reset).
type Checker interface {
	Name() string
	Check(r *Run) error
}

// checker adapts a (name, func) pair to Checker.
type checker struct {
	name string
	fn   func(r *Run) error
}

func (c checker) Name() string       { return c.name }
func (c checker) Check(r *Run) error { return c.fn(r) }

// New builds an ad-hoc checker from a name and a function; harnesses use it
// for algorithm-specific invariants (adaptive name bounds, fallback counts).
func New(name string, fn func(r *Run) error) Checker {
	return checker{name: name, fn: fn}
}

// Exclusive is the paper's safety property: all acquired names are distinct
// and >= 1. It must hold for every algorithm under every schedule and crash
// pattern; a violation is always a bug.
func Exclusive() Checker {
	return New("exclusive", func(r *Run) error {
		if len(r.Names) > smallRun {
			return exclusiveMap(r)
		}
		// Small runs (every proof walk) check on the stack: read the names
		// by ascending pid and compare each with the names of the lower pids
		// — the same order, and so the same first violation, as the map path.
		var pids [smallRun]int
		var names [smallRun]int64
		k := 0
		for pid := 0; pid < r.K && k < len(r.Names); pid++ {
			n, ok := r.Names[pid]
			if !ok {
				continue
			}
			if n < 1 {
				return fmt.Errorf("process %d acquired invalid name %d", pid, n)
			}
			for j := 0; j < k; j++ {
				if names[j] == n {
					return fmt.Errorf("name %d held by both process %d and process %d", n, pids[j], pid)
				}
			}
			pids[k], names[k] = pid, n
			k++
		}
		return nil
	})
}

// smallRun is the largest name count Exclusive checks without allocating.
const smallRun = 64

// exclusiveMap is Exclusive for runs with more than smallRun names.
func exclusiveMap(r *Run) error {
	holder := make(map[int64]int, len(r.Names))
	pids := make([]int, 0, len(r.Names))
	for pid := range r.Names {
		pids = append(pids, pid)
	}
	sort.Ints(pids) // deterministic error messages
	for _, pid := range pids {
		n := r.Names[pid]
		if n < 1 {
			return fmt.Errorf("process %d acquired invalid name %d", pid, n)
		}
		if other, dup := holder[n]; dup {
			return fmt.Errorf("name %d held by both process %d and process %d", n, other, pid)
		}
		holder[n] = pid
	}
	return nil
}

// NameRange checks every acquired name is <= bound; bound 0 means use the
// instance's own claimed MaxName. Algorithms with an enabled fallback lane
// assign names beyond MaxName by design — their harnesses pass the lane's
// upper limit explicitly or skip this checker.
func NameRange(bound int64) Checker {
	return New("name-range", func(r *Run) error {
		b := bound
		if b == 0 {
			b = r.MaxName
		}
		// By ascending pid, so the violation named is the same on every call.
		for pid := 0; pid < r.K; pid++ {
			if n, ok := r.Names[pid]; ok && n > b {
				return fmt.Errorf("process %d name %d exceeds bound %d", pid, n, b)
			}
		}
		return nil
	})
}

// StepBound checks no process took more than bound local steps — the
// paper's wait-free time bounds. bound <= 0 disables the check (for stages
// with no closed-form bound).
func StepBound(bound int64) Checker {
	return New("step-bound", func(r *Run) error {
		if bound <= 0 {
			return nil
		}
		for pid, s := range r.Res.Steps {
			if s > bound {
				return fmt.Errorf("process %d took %d steps, exceeding the wait-free bound %d", pid, s, bound)
			}
		}
		return nil
	})
}

// Returned checks the observable core of wait-freedom: every process either
// crashed, acquired a name, or explicitly failed — nobody is unaccounted
// for. Drive can only produce accounted-for runs, so this checker guards the
// record itself (and any future harness) rather than the algorithm.
func Returned() Checker {
	return New("returned", func(r *Run) error {
		for pid := 0; pid < r.K; pid++ {
			if r.Res.Crashed[pid] {
				continue
			}
			if _, ok := r.Names[pid]; ok {
				continue
			}
			failed := false
			for _, f := range r.Failed {
				if f == pid {
					failed = true
					break
				}
			}
			if !failed {
				return fmt.Errorf("process %d neither crashed, renamed, nor failed", pid)
			}
		}
		return nil
	})
}

// AllRenamed checks every non-crashed process acquired a name — the
// guarantee of Basic, PolyLog, Efficient and the adaptive constructions
// within their contention bounds (the stage-cascade argument survives
// crashes: losers of a stage are always fewer than the next stage's bound).
func AllRenamed() Checker {
	return New("all-renamed", func(r *Run) error {
		if len(r.Failed) > 0 {
			return fmt.Errorf("%d of %d surviving processes failed to rename (first: process %d)",
				len(r.Failed), r.Survivors(), r.Failed[0])
		}
		return nil
	})
}

// HalfRenamed checks more than half of the contenders acquired names — the
// Lemma 4 majority guarantee. It applies only to crash-free runs: a crashed
// majority can take its matched unique neighbors to the grave, leaving the
// survivors unmatched.
func HalfRenamed() Checker {
	return New("half-renamed", func(r *Run) error {
		if r.Crashes() > 0 {
			return nil
		}
		if 2*len(r.Names) < r.K {
			return fmt.Errorf("only %d of %d contenders renamed (majority requires more than half)", len(r.Names), r.K)
		}
		return nil
	})
}

// Suite is an ordered list of checkers applied together.
type Suite []Checker

// Check runs every checker against the run and returns the first violation,
// wrapped with the checker's name, or nil.
func (s Suite) Check(r *Run) error {
	for _, c := range s {
		if err := c.Check(r); err != nil {
			return fmt.Errorf("%s: %w", c.Name(), err)
		}
	}
	return nil
}

// Verdict is a recorded run's failure, or nil: a process panic (Res.Err)
// preempts the checkers, so every harness — campaign, replay, shrink and
// proof walk — reports the same failure class for the same run.
func (s Suite) Verdict(r *Run) error {
	if r.Res.Err != nil {
		return fmt.Errorf("process panic: %w", r.Res.Err)
	}
	return s.Check(r)
}

// Names lists the checker names, for reporting.
func (s Suite) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name()
	}
	return out
}

// Basic is the suite every renaming execution must pass regardless of
// algorithm: exclusiveness, the instance's own name bound, and full
// accounting.
func Basic() Suite {
	return Suite{Exclusive(), NameRange(0), Returned()}
}

// Instance is one system under check: a renamer, the original names its k
// contenders hold, and each process's Rename result. A fresh Instance starts
// with every outcome cleared. An Instance runs one execution at a time.
//
// On the goroutine engine Body stores each result as its process returns.
// On the vectorized engine a lane's result lives in the engine alone (the
// lane's machine, which Checkpoint and Restore carry with the lane), and
// Collect copies it into Got and Oks once the execution is over.
//
// The lane set its Frames builder roots stays with the instance, and the
// builder re-arms each lane's last frame (vexec.FrameRenamer's dst contract)
// each time it roots the lane again: on a Reset, a restart or a relaunch of
// the same instance, or on the next instance once Reuse has handed the set
// over. A campaign worker or a stateless walk that passes its last
// instance's lane set on this way builds its lanes without allocating.
type Instance struct {
	Renamer Renamer
	Origs   []int64 // original names, by pid
	Got     []int64 // Rename's name, by pid
	Oks     []bool  // Rename's ok, by pid

	lanes *laneSet // Frames' builder and the lane roots it re-arms
}

// laneSet is the vectorized form's lane roots: the frame each lane was last
// rooted with, by pid, and the one builder that re-arms them with the
// renamer of the instance that currently holds the set.
type laneSet struct {
	fr    vexec.FrameRenamer
	roots []vexec.Frame
	build func(p *shmem.Proc) vexec.Frame
}

// NewInstance wraps r for k contenders holding origs; nil assigns 1..k.
func NewInstance(r Renamer, k int, origs []int64) *Instance {
	if origs == nil {
		origs = make([]int64, k)
		for i := range origs {
			origs[i] = int64(i + 1)
		}
	}
	return &Instance{Renamer: r, Origs: origs, Got: make([]int64, k), Oks: make([]bool, k)}
}

// Reuse hands prev's lane set to in, for in's Frames builder to re-arm
// instead of allocating. prev must run no more: its lanes are now in's.
// prev's own Got and Oks keep the results of its last execution.
func (in *Instance) Reuse(prev *Instance) {
	in.lanes, prev.lanes = prev.lanes, nil
}

// Body is the goroutine form of the instance: each process renames with its
// original name and stores the result in its slot.
func (in *Instance) Body() sched.Body {
	return func(p *shmem.Proc) {
		in.Got[p.ID()], in.Oks[p.ID()] = in.Renamer.Rename(p, p.Name())
	}
}

// Frames is the vectorized form of Body: a root builder that gives each lane
// the renamer's own frame automaton, re-armed from the frame the lane was
// last rooted with. The lane's result stays in the engine until Collect
// reads it. Frames is nil when the renamer ships no frame automata
// (vexec.FrameRenamer), so a non-nil Frames is what routes an execution onto
// the vectorized engine. An engine calls the builder only for a lane that
// no longer runs its old root, which is what the re-arm contract asks.
func (in *Instance) Frames() func(p *shmem.Proc) vexec.Frame {
	fr, ok := in.Renamer.(vexec.FrameRenamer)
	if !ok {
		return nil
	}
	l := in.lanes
	if l == nil {
		l = &laneSet{}
		l.build = func(p *shmem.Proc) vexec.Frame {
			r := &l.roots[p.ID()]
			*r = l.fr.FrameRename(p.Name(), *r)
			return *r
		}
		in.lanes = l
	}
	l.fr = fr
	if k := len(in.Got); len(l.roots) < k {
		l.roots = append(l.roots, make([]vexec.Frame, k-len(l.roots))...)
	}
	return l.build
}

// Collect copies each process's result out of e into Got and Oks once an
// execution on e is over, before e runs again. On the vectorized engine a
// lane that did not finish its rename (crashed or panicked) reads (0,
// false). On the goroutine engine Body has already stored every result, so
// Collect does nothing.
func (in *Instance) Collect(e sched.Engine) {
	x, ok := e.(*vexec.Exec)
	if !ok {
		return
	}
	for pid := range in.Got {
		in.Got[pid], in.Oks[pid] = x.Returned(pid)
	}
}

// Record refills run with the checked-form record of the execution that
// ended in res (see Run.Reset).
func (in *Instance) Record(run *Run, res sched.Result) {
	run.Reset(in.Origs, in.Got, in.Oks, res, in.Renamer.MaxName())
}

// Drive runs k contenders holding origs (nil assigns 1..k) through r under
// policy and plan on the goroutine oracle and returns the checked-form
// record. It does not apply any checkers itself — callers pick the suite
// matching the algorithm's claims. An unexpected process panic is surfaced
// in Run.Res.Err; callers must treat a non-nil Err as a failure before
// reading the rest of the record.
func Drive(r Renamer, k int, origs []int64, policy sched.Policy, plan sched.CrashPlan) *Run {
	in := NewInstance(r, k, origs)
	run := &Run{}
	in.Record(run, sched.Run(k, in.Origs, policy, plan, in.Body()))
	return run
}

// NewRun assembles the checked-form record from the raw per-pid outcome of
// a driven execution: got[pid]/oks[pid] are Rename's return values and res
// the scheduler summary. It is Reset on a fresh Run, for harnesses that run
// the execution themselves and keep the record.
func NewRun(origs, got []int64, oks []bool, res sched.Result, maxName int64) *Run {
	run := &Run{}
	run.Reset(origs, got, oks, res, maxName)
	return run
}

// Reset refills r in place with the record of another execution, reusing its
// Names map and Failed slice: a proof walk keeps one Run and resets it per
// execution, so a checker must not retain the record past its Check call. It
// is the single place the crashed/renamed/failed classification lives.
func (r *Run) Reset(origs, got []int64, oks []bool, res sched.Result, maxName int64) {
	k := len(origs)
	if r.Names == nil {
		r.Names = make(map[int]int64, k)
	} else {
		clear(r.Names)
	}
	r.K, r.Origs, r.Failed, r.Res, r.MaxName = k, origs, r.Failed[:0], res, maxName
	for pid := 0; pid < k; pid++ {
		if res.Crashed[pid] {
			continue
		}
		if !oks[pid] {
			r.Failed = append(r.Failed, pid)
			continue
		}
		r.Names[pid] = got[pid]
	}
}
