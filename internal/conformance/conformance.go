// Package conformance is the single table through which every algorithm of
// the paper gets adversarial coverage: one Case per algorithm, carrying a
// fresh-instance builder, an original-name sampler and the invariant suite
// encoding the algorithm's own theorem. The core test suite sweeps the
// table across every shipped adversary family (conformance_test.go in
// internal/core), and the model checker proves its small cells — one source
// of truth for which configuration "the algorithms" means.
//
// Suites are family-aware in the sense that liveness claims crashes
// legitimately vacate (the Lemma 4 majority) self-gate on crash-free runs,
// while exclusiveness, name ranges and step bounds are asserted
// unconditionally — the paper quantifies them over every schedule and crash
// pattern.
package conformance

import (
	"repro/internal/check"
	"repro/internal/compete"
	"repro/internal/core"
	"repro/internal/shmem"
	"repro/internal/xrand"
)

// Case describes one algorithm's conformance surface.
type Case struct {
	Name string
	// New builds a fresh instance for n contenders; seed determinizes the
	// sampled expander graphs.
	New func(n int, seed uint64) check.Renamer
	// Origs samples n distinct original names from the range the case's
	// algorithm is configured for.
	Origs func(n int, seed uint64) []int64
	// Suite is the full invariant suite for population n under the named
	// adversary family.
	Suite func(n int, family string) check.Suite
	// StepBound is the paper's closed-form per-process step bound for
	// population n, 0 when the theorem states none for the composition.
	StepBound func(n int) int64
	// Proven lists the cells at which the exhaustive model checker
	// (internal/model) proves — not samples — the full suite: every schedule,
	// and every crash pattern up to the cell's cap, of the fixed-seed
	// instance is covered up to commuting-grant equivalence. The proof is
	// exact: the walk cuts no node by a state hash, so no hash collision can
	// enter the verdict. Sizes absent here are sampled by adversary.Explore. The split is a budget statement:
	// the walk must exhaust within the CI model-check job's time box, and the
	// reachable cells differ per algorithm. The stage-light algorithms close
	// through n=5 with full crash branching under the stateful source-DPOR
	// engine; Efficient and Adaptive chain the snapshot-based AF stage, whose
	// seq-counter-bearing scan states defeat partial-order reduction, and
	// stop at n=2 (now with full crash branching) — see the
	// ROADMAP's compositional-proof item for the measured wall.
	Proven []ModelCell
	// Fault lists the fault-model columns: cells the model checker exhausts
	// under a non-default shmem.Model (weak registers, crash-recovery). A
	// cell without ExpectViolation must prove clean; a cell with it is an
	// expected-violation cell — the model is strictly outside the claim the
	// algorithm makes, the checker must find the named violation, and Repro
	// is the committed shrunk adversary reproducer line witnessing it.
	// Fault-model proofs for the Section 3 algorithms at small n are largely
	// vacuous (their small-population instances place contenders on disjoint
	// competition neighborhoods, so the weak-register tree collapses to the
	// atomic one); the firstfit fixture exists to make them non-vacuous.
	Fault []FaultCell
}

// ModelCell is one population the model checker exhausts for a case, with
// the crash-branching cap the proof covers (0 = crash-free schedules only;
// n-1 = every pattern that leaves a survivor).
type ModelCell struct {
	N          int
	MaxCrashes int
}

// FaultCell is one (model, population, crash-cap) cell of a case's
// fault-model columns.
type FaultCell struct {
	Model      shmem.Model
	N          int
	MaxCrashes int
	// ExpectViolation, when non-empty, is a substring of the violation the
	// model checker must report for this cell (empty = the cell proves
	// clean).
	ExpectViolation string
	// Repro is the committed shrunk reproducer line (adversary.Parse format)
	// that replays the expected violation; only set with ExpectViolation.
	Repro string
}

// ProvenNs lists the populations with at least one proven cell, for reports
// that only care about the proven-versus-sampled split.
func (c Case) ProvenNs() []int {
	var ns []int
	for _, cell := range c.Proven {
		if len(ns) == 0 || ns[len(ns)-1] != cell.N {
			ns = append(ns, cell.N)
		}
	}
	return ns
}

// Names is the known original-name range [1..Names] used by the algorithms
// that need one; identity-oblivious algorithms sample from HugeNames.
const (
	Names     = 1 << 10
	PolyNames = 1 << 14 // PolyLog needs N >> k or the epoch construction is the identity
	HugeNames = 1 << 28
)

func origsFrom(rangeN int) func(n int, seed uint64) []int64 {
	return func(n int, seed uint64) []int64 {
		return xrand.New(xrand.Mix(seed, 0x0815)).Sample(n, rangeN)
	}
}

// noBound is the StepBound of compositions the paper gives no closed-form
// per-process bound for at practical scale.
func noBound(n int) int64 { return 0 }

// Cases returns the table: all six Section 3 algorithms in paper order,
// plus the firstfit fault-model fixture. Bounds are seed-independent, so
// suites compute them with core's bound functions (MajorityBounds and its
// siblings) instead of building an instance to ask.
func Cases() []Case {
	return []Case{
		{
			Name:   "majority",
			Proven: []ModelCell{{N: 2, MaxCrashes: 1}, {N: 3, MaxCrashes: 2}, {N: 4, MaxCrashes: 3}, {N: 5, MaxCrashes: 4}},
			Fault: []FaultCell{
				{Model: shmem.Model{Regs: shmem.RegRegular}, N: 3, MaxCrashes: 2},
				{Model: shmem.Model{Regs: shmem.RegSafe}, N: 3, MaxCrashes: 2},
				{Model: shmem.Model{Recovery: true}, N: 3, MaxCrashes: 2},
			},
			New:       func(n int, seed uint64) check.Renamer { return core.NewMajority(n, Names, core.Config{Seed: seed}) },
			Origs:     origsFrom(Names),
			StepBound: func(n int) int64 { _, steps := core.MajorityBounds(n, Names, core.Config{}); return steps },
			Suite: func(n int, family string) check.Suite {
				maxName, maxSteps := core.MajorityBounds(n, Names, core.Config{})
				return check.Suite{
					check.Exclusive(),
					check.NameRange(maxName),
					check.StepBound(maxSteps),
					check.Returned(),
					check.HalfRenamed(), // Lemma 4; self-gates on crash-free runs
				}
			},
		},
		{
			Name:   "basic",
			Proven: []ModelCell{{N: 2, MaxCrashes: 1}, {N: 3, MaxCrashes: 2}, {N: 4, MaxCrashes: 3}, {N: 5, MaxCrashes: 4}},
			Fault: []FaultCell{
				{Model: shmem.Model{Regs: shmem.RegSafe}, N: 3, MaxCrashes: 2},
				{Model: shmem.Model{Recovery: true}, N: 3, MaxCrashes: 2},
			},
			New:       func(n int, seed uint64) check.Renamer { return core.NewBasic(n, Names, core.Config{Seed: seed}) },
			Origs:     origsFrom(Names),
			StepBound: func(n int) int64 { _, steps := core.BasicBounds(n, Names, core.Config{}); return steps },
			Suite: func(n int, family string) check.Suite {
				maxName, maxSteps := core.BasicBounds(n, Names, core.Config{})
				return check.Suite{
					check.Exclusive(),
					check.NameRange(maxName),
					check.StepBound(maxSteps),
					check.Returned(),
					check.AllRenamed(),
				}
			},
		},
		{
			Name:      "polylog",
			Proven:    []ModelCell{{N: 2, MaxCrashes: 1}, {N: 3, MaxCrashes: 2}, {N: 4, MaxCrashes: 3}, {N: 5, MaxCrashes: 4}},
			New:       func(n int, seed uint64) check.Renamer { return core.NewPolyLog(n, PolyNames, core.Config{Seed: seed}) },
			Origs:     origsFrom(PolyNames),
			StepBound: func(n int) int64 { _, steps := core.PolyLogBounds(n, PolyNames, core.Config{}); return steps },
			Suite: func(n int, family string) check.Suite {
				maxName, maxSteps := core.PolyLogBounds(n, PolyNames, core.Config{})
				return check.Suite{
					check.Exclusive(),
					check.NameRange(maxName),
					check.StepBound(maxSteps),
					check.Returned(),
					check.AllRenamed(),
				}
			},
		},
		{
			Name:      "efficient",
			Proven:    []ModelCell{{N: 2, MaxCrashes: 1}},
			New:       func(n int, seed uint64) check.Renamer { return core.NewEfficient(n, core.Config{Seed: seed}) },
			Origs:     origsFrom(HugeNames),
			StepBound: noBound,
			Suite: func(n int, family string) check.Suite {
				return check.Suite{
					check.Exclusive(),
					check.NameRange(int64(2*n - 1)), // Theorem 2
					check.Returned(),
					check.AllRenamed(),
				}
			},
		},
		{
			Name:   "almostadaptive",
			Proven: []ModelCell{{N: 2, MaxCrashes: 1}, {N: 3, MaxCrashes: 2}, {N: 4, MaxCrashes: 3}, {N: 5, MaxCrashes: 4}},
			New: func(n int, seed uint64) check.Renamer {
				return core.NewAlmostAdaptive(Names, n, core.Config{Seed: seed})
			},
			Origs:     origsFrom(Names),
			StepBound: noBound,
			Suite: func(n int, family string) check.Suite {
				return check.Suite{
					check.Exclusive(),
					check.NameRange(core.AlmostAdaptiveNameBound(Names, n, n, core.Config{})), // Theorem 3 adaptive bound
					check.Returned(),
					check.AllRenamed(),
				}
			},
		},
		{
			Name:      "adaptive",
			Proven:    []ModelCell{{N: 2, MaxCrashes: 1}},
			New:       func(n int, seed uint64) check.Renamer { return core.NewAdaptive(n, core.Config{Seed: seed}) },
			Origs:     origsFrom(HugeNames),
			StepBound: noBound,
			Suite: func(n int, family string) check.Suite {
				return check.Suite{
					check.Exclusive(),
					check.NameRange(core.AdaptiveNameBound(n)), // Theorem 4: 8k - lg k - 1
					check.Returned(),
					check.AllRenamed(),
				}
			},
		},
		{
			// firstfit is not a Section 3 algorithm: it is the fault-model
			// showcase — a deliberately unbalanced first-fit scan over the
			// Figure 1 competition in which every contender starts on pair 0,
			// so register contention (and with it a non-vacuous weak-register
			// tree) is guaranteed at n >= 2. Its suite is accounting only
			// (exclusiveness, name range, returned): under contention the
			// adversary can burn every pair, so no liveness is claimed. The
			// safe-register n=3 cell is the table's expected-violation entry:
			// safe semantics break the Lemma 1 confirming re-read, the model
			// checker finds the double win in milliseconds, and the committed
			// reproducer line replays it through the adversary layer.
			Name:   "firstfit",
			Proven: []ModelCell{{N: 2, MaxCrashes: 1}},
			Fault: []FaultCell{
				{Model: shmem.Model{Regs: shmem.RegRegular}, N: 2, MaxCrashes: 1},
				{Model: shmem.Model{Regs: shmem.RegSafe}, N: 2, MaxCrashes: 1},
				{Model: shmem.Model{Recovery: true}, N: 2, MaxCrashes: 1},
				{Model: shmem.Model{Regs: shmem.RegSafe, Recovery: true}, N: 2, MaxCrashes: 1},
				{Model: shmem.Model{Regs: shmem.RegSafe}, N: 3, MaxCrashes: 0,
					ExpectViolation: "exclusive",
					Repro:           "adversary:algo=firstfit family=staleread n=3 seed=0xaf38f44c27694ce4 model=safe"},
			},
			New:   func(n int, seed uint64) check.Renamer { return compete.NewFirstFit(n) },
			Origs: identityOrigs,
			Suite: func(n int, family string) check.Suite {
				return check.Basic()
			},
			StepBound: noBound,
		},
	}
}

// identityOrigs assigns original names 1..n: the firstfit fixture's model
// cells and its committed reproducer lines must agree on the instance, and
// pids are the stable choice.
func identityOrigs(n int, seed uint64) []int64 {
	names := make([]int64, n)
	for i := range names {
		names[i] = int64(i + 1)
	}
	return names
}
