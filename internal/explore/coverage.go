package explore

import (
	"repro/internal/sched"
	"repro/internal/xrand"
)

// GenomeConfig is one mutable exploration configuration: a named builder of
// (policy, crash plan) pairs from a seed. The adversary layer wires each
// shipped family in as one config, so a genome is exactly the (family, seed)
// pair of the reproducer format.
type GenomeConfig struct {
	Name string
	Mk   func(seed uint64) (sched.Policy, sched.CrashPlan)
}

// genome is one corpus entry: which configuration, driven by which seed,
// and how early its schedule went somewhere new (the prefix depth of its
// first never-seen fingerprint; lower is more novel).
type genome struct {
	cfg   int
	seed  uint64
	depth int
}

// CoverageGuided is the fuzz-style strategy: it executes genomes and keeps
// the ones whose schedules land a fingerprint never seen before, mutating
// the corpus (bit flips on the seed, configuration hops) in preference to
// drawing fresh random genomes. Coverage is prefix-based: every prefix of
// the recorded trace has a cumulative fingerprint (sched.Trace.Fingerprints,
// the same fold the controller maintains), and a schedule scores as novel at
// the depth of its first never-seen prefix fingerprint. A schedule that
// retreads a known interleaving for 30 grants and then diverges is banked —
// with its divergence depth — where whole-schedule hashing would only bank
// it if the complete schedule was new; mutation then prefers early
// divergers (tournament selection on depth), which is what climbs at large
// n, where almost every full schedule is trivially new but few are
// structurally new early.
type CoverageGuided struct {
	cfgs   []GenomeConfig
	budget int
	rng    *xrand.Rand
	seen   map[uint64]struct{}
	corpus []genome
	cur    genome

	run     int
	started bool
	policy  sched.Policy
	plan    sched.CrashPlan
	stats   Stats
	novel   int

	// wholeOnly restores the pre-PR-5 whole-schedule coverage signal; kept
	// (unexported) so the prefix-coverage regression test can race the two
	// modes against each other on equal budgets.
	wholeOnly bool
}

// NewCoverageGuided builds the strategy over the given configurations.
// budget caps total executions (it must be positive: an open-ended mutation
// loop never declares itself done). All randomness derives from seed, so a
// campaign is replayable.
func NewCoverageGuided(seed uint64, budget int, cfgs []GenomeConfig) *CoverageGuided {
	if len(cfgs) == 0 {
		panic("explore: CoverageGuided needs at least one configuration")
	}
	if budget < 1 {
		budget = 1
	}
	cg := &CoverageGuided{
		cfgs:   cfgs,
		budget: budget,
		rng:    xrand.New(xrand.Mix(seed, 0xc09e1a9e)),
		seen:   make(map[uint64]struct{}),
	}
	cg.cur = genome{cfg: cg.rng.Intn(len(cfgs)), seed: cg.rng.Uint64()}
	return cg
}

// Name implements Strategy.
func (cg *CoverageGuided) Name() string { return "covguided" }

// RunSeed implements Seeder: the genome's seed determinizes the instance as
// well as the schedule, mirroring the seeded reproducer semantics.
func (cg *CoverageGuided) RunSeed(run int) uint64 { return cg.cur.seed }

// Genome describes the configuration driving the next execution (for
// reporting a violation as a (config name, seed) pair).
func (cg *CoverageGuided) Genome() (string, uint64) {
	return cg.cfgs[cg.cur.cfg].Name, cg.cur.seed
}

// Novel reports how many executions produced a fingerprint not seen before.
func (cg *CoverageGuided) Novel() int { return cg.novel }

// Next implements Strategy: drive the current genome's policy and plan, with
// the same decision shape as a seeded run.
func (cg *CoverageGuided) Next(e sched.Engine) Choice {
	if !cg.started {
		cg.policy, cg.plan = cg.cfgs[cg.cur.cfg].Mk(cg.cur.seed)
		cg.started = true
	}
	cg.stats.Explored++
	return policyChoice(e, cg.policy, cg.plan)
}

// Backtrack implements Strategy: bank the genome (with its first-novelty
// depth) if any prefix of its schedule was new, then mutate the corpus (or
// draw fresh) for the next execution.
func (cg *CoverageGuided) Backtrack(t sched.Trace, res sched.Result) bool {
	cg.stats.Executions++
	cg.started = false
	cg.policy, cg.plan = nil, nil
	depth := cg.noveltyDepth(t, res)
	if depth >= 0 {
		cg.cur.depth = depth
		cg.corpus = append(cg.corpus, cg.cur)
		cg.novel++
	}
	if cg.stats.Executions >= cg.budget {
		return false
	}
	cg.run++
	if len(cg.corpus) == 0 || cg.rng.Intn(4) == 0 {
		// Exploration draw: a fresh random genome keeps the corpus from
		// fixating on one basin of the schedule space.
		cg.cur = genome{cfg: cg.rng.Intn(len(cg.cfgs)), seed: cg.rng.Uint64()}
		return true
	}
	base := cg.pickBase()
	switch cg.rng.Intn(4) {
	case 0:
		// Hop configurations, keep the seed: the same schedule skeleton under
		// a different adversary shape.
		base.cfg = cg.rng.Intn(len(cg.cfgs))
	case 1:
		// Coarse jump: rehash the seed.
		base.seed = xrand.Mix(base.seed, cg.rng.Uint64())
	default:
		// Fine mutation: flip one seed bit, the classic fuzzing step.
		base.seed ^= 1 << uint(cg.rng.Intn(64))
	}
	cg.cur = base
	return true
}

// noveltyDepth scores one finished execution: the 0-based depth of its first
// never-seen prefix fingerprint, or -1 for an exact repeat of a known
// schedule. Only two fingerprints are ever recorded per novel execution —
// the first-new prefix and the complete schedule — so the seen set stays
// O(1) per execution like the whole-schedule mode, instead of O(trace
// length) (at the large n this mode targets, traces run to thousands of
// grants and a full prefix record would dominate the campaign's memory).
// The sparse record can only make later schedules look novel slightly
// *earlier* than their true divergence point — over-banking a genome, never
// dropping one. In whole-schedule mode only the final fingerprint counts,
// at full depth.
func (cg *CoverageGuided) noveltyDepth(t sched.Trace, res sched.Result) int {
	if _, dup := cg.seen[res.Fingerprint]; dup {
		return -1
	}
	cg.seen[res.Fingerprint] = struct{}{}
	if cg.wholeOnly || len(t) == 0 {
		return len(t)
	}
	depth := len(t) - 1
	t.EachFingerprint(func(d int, fp uint64) bool {
		if _, dup := cg.seen[fp]; dup {
			return true
		}
		depth = d
		cg.seen[fp] = struct{}{}
		return false
	})
	return depth
}

// pickBase selects a corpus genome for mutation by tournament: of two random
// entries, the one whose schedule diverged from known territory earlier
// wins. Early divergers reshape the whole suffix when mutated; late
// divergers mostly re-walk covered ground.
func (cg *CoverageGuided) pickBase() genome {
	a := cg.corpus[cg.rng.Intn(len(cg.corpus))]
	b := cg.corpus[cg.rng.Intn(len(cg.corpus))]
	if b.depth < a.depth {
		return b
	}
	return a
}

// Stats implements Strategy.
func (cg *CoverageGuided) Stats() Stats { return cg.stats }
