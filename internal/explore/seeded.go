package explore

import (
	"repro/internal/sched"
)

// Seeded wraps the pre-strategy exploration shape — one (policy, crash plan)
// pair per run seed, every run independent — as a Strategy. It implements
// Independent, so Drive fans its runs across sched.ParallelRuns exactly as
// the seeded explorer always has: wrapping is a zero-behavior-change
// refactor. The sequential Next/Backtrack path mirrors sched.Run's decision
// loop decision for decision, so a Seeded run driven either way produces the
// same schedule fingerprint.
type Seeded struct {
	name string
	runs int
	mk   func(run int) (sched.Policy, sched.CrashPlan)
	seed func(run int) uint64

	// Sequential-driving state (unused on the Independent fast path).
	run     int
	started bool
	policy  sched.Policy
	plan    sched.CrashPlan
	stats   Stats
}

// NewSeeded builds the wrapper: runs executions, mk building each run's
// policy and plan, seed supplying each run's instance seed (nil: run index).
func NewSeeded(name string, runs int, mk func(run int) (sched.Policy, sched.CrashPlan), seed func(run int) uint64) *Seeded {
	if runs < 1 {
		runs = 1
	}
	if seed == nil {
		seed = func(run int) uint64 { return uint64(run) }
	}
	return &Seeded{name: name, runs: runs, mk: mk, seed: seed}
}

// Name implements Strategy.
func (s *Seeded) Name() string { return s.name }

// Runs implements Independent.
func (s *Seeded) Runs() int { return s.runs }

// PolicyPlan implements Independent.
func (s *Seeded) PolicyPlan(run int) (sched.Policy, sched.CrashPlan) { return s.mk(run) }

// RunSeed implements Seeder.
func (s *Seeded) RunSeed(run int) uint64 { return s.seed(run) }

// Next implements Strategy: the sched.Run decision loop — the policy's pick
// followed by the crash plan's veto — exactly the semantics a driven run has.
func (s *Seeded) Next(e sched.Engine) Choice {
	if !s.started {
		s.policy, s.plan = s.mk(s.run)
		s.started = true
	}
	s.stats.Explored++
	return policyChoice(e, s.policy, s.plan)
}

// Backtrack implements Strategy: advance to the next run seed.
func (s *Seeded) Backtrack(t sched.Trace, res sched.Result) bool {
	s.stats.Executions++
	s.run++
	s.started = false
	s.policy, s.plan = nil, nil
	return s.run < s.runs
}

// Stats implements Strategy.
func (s *Seeded) Stats() Stats { return s.stats }
