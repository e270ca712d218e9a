package adversary

import (
	"repro/internal/explore"
	"repro/internal/sched"
)

// StrategyMaker instantiates one (family, n) cell's search strategy for an
// Explore campaign: fam is the cell's adversary family, n its population,
// and seeds the per-run seed sequence the campaign derived for the cell
// (len(seeds) is the cell's run budget). The shipped makers are Seeded (the
// default), SourceDPOR, SleepSets and CoverageGuided; anything returning an
// explore.Strategy plugs in.
type StrategyMaker func(fam Family, n int, seeds []uint64) explore.Strategy

// Seeded is the default maker: the pre-strategy exploration behavior, one
// independent run per seed through the family's policy and crash plan,
// fanned across workers. Campaigns with a nil Spec.Strategy get exactly the
// schedules (and schedule fingerprints) they always have.
func Seeded() StrategyMaker {
	return func(fam Family, n int, seeds []uint64) explore.Strategy {
		return explore.NewSeeded("seeded", len(seeds), func(run int) (sched.Policy, sched.CrashPlan) {
			seed := seeds[run]
			return fam.NewPolicy(seed, n), fam.NewPlan(seed, n)
		}, func(run int) uint64 { return seeds[run] })
	}
}

// SourceDPOR is the stateful search: source-set partial-order reduction
// with sleep sets, driving one persistent instance through
// checkpoint/restore instead of rebuilding and replaying per execution
// (CellStats.Replayed stays zero; Restored counts the rewinds). No node is
// cut by a state hash. The cell's family only names the cell, the instance
// is pinned to the cell's first seed, budget caps executions (0 uses the
// cell's run budget), and maxCrashes enables exhaustive crash branching. An
// unbudgeted completed cell is an exact proof for that instance —
// internal/model runs exactly this engine.
func SourceDPOR(budget, maxCrashes int) StrategyMaker {
	return func(fam Family, n int, seeds []uint64) explore.Strategy {
		b := budget
		if b <= 0 {
			b = len(seeds)
		}
		return explore.NewSourceDPOR(seeds[0], b, maxCrashes)
	}
}

// SleepSets is the exhaustive DFS with sleep-set pruning, optionally
// branching on crashes (maxCrashes 0 = schedule-only). With budget 0 it uses
// the cell's run budget; give it room (or use internal/model, which runs it
// unbudgeted) and a completed cell is a proof for that instance.
func SleepSets(budget, maxCrashes int) StrategyMaker {
	return func(fam Family, n int, seeds []uint64) explore.Strategy {
		b := budget
		if b <= 0 {
			b = len(seeds)
		}
		return explore.NewSleepSet(seeds[0], b, maxCrashes)
	}
}

// CoverageGuided mutates (family, seed) genomes — the exact pair a shrunk
// reproducer names — keeping genomes whose schedules produce fingerprints
// not seen before. The mutation pool is families (default: the whole shipped
// library, regardless of the cell's own family); the cell's seeds feed the
// deterministic mutation stream and the budget default.
func CoverageGuided(budget int, families ...Family) StrategyMaker {
	return func(fam Family, n int, seeds []uint64) explore.Strategy {
		pool := families
		if len(pool) == 0 {
			pool = All()
		}
		cfgs := make([]explore.GenomeConfig, len(pool))
		for i, f := range pool {
			f := f
			cfgs[i] = explore.GenomeConfig{
				Name: f.Name,
				Mk: func(seed uint64) (sched.Policy, sched.CrashPlan) {
					return f.NewPolicy(seed, n), f.NewPlan(seed, n)
				},
			}
		}
		b := budget
		if b <= 0 {
			b = len(seeds)
		}
		return explore.NewCoverageGuided(seeds[0], b, cfgs)
	}
}
