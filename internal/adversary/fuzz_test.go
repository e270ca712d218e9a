package adversary

import (
	"testing"

	"repro/internal/check"
	"repro/internal/compete"
	"repro/internal/core"
)

// FuzzRenameSchedule fuzzes the (algorithm, family, population, seed,
// strategy) space: the seed determinizes the sampled expander graphs, the
// schedule and the crash pattern at once, so every crashing input is a
// complete reproducer. stratIdx selects the search strategy driving the
// schedules — the direct seeded drive, a budgeted schedule-only source-DPOR
// walk, a budgeted sleep-set walk, a budgeted source-DPOR walk with crash
// branching (checkpoint/restore state reconstruction), or coverage-guided
// mutation — so the fuzz smoke job exercises every code path of the
// exploration engine, not just the seeded one. The invariants asserted are
// the unconditional ones — exclusiveness and full accounting — which no
// schedule or crash pattern may violate.
//
// famIdx beyond All() selects a FaultFamilies() entry, arming the fault
// model: safe registers, crash-recovery, or op-level delays. Those runs
// drive the firstfit fixture (built for non-vacuous fault trees; its reads
// never index memory, so junk values cannot panic it) and assert only full
// accounting — exclusiveness is exactly what weak semantics are expected to
// break, and the committed conformance reproducer already witnesses that.
func FuzzRenameSchedule(f *testing.F) {
	f.Add(uint64(1), 0, 0, 2, 0)
	f.Add(uint64(42), 1, 3, 5, 0)
	f.Add(uint64(0x9e3779b9), 2, 6, 8, 0)
	f.Add(uint64(7), 0, 7, 3, 0)
	f.Add(uint64(0xdead), 1, 4, 6, 0)
	// Tree and mutation strategies over each algorithm class.
	f.Add(uint64(3), 0, 0, 2, 1)
	f.Add(uint64(0xd00a), 1, 1, 3, 1)
	f.Add(uint64(0x51ee9), 2, 0, 3, 2)
	f.Add(uint64(0xc07), 0, 5, 3, 3)
	f.Add(uint64(0xc08), 2, 2, 4, 3)
	f.Add(uint64(0xc0b), 1, 5, 3, 4)
	// Fault-model arms: staleread (8), crashrestart (9), opdelay (10),
	// across the seeded, tree and mutation strategies.
	f.Add(uint64(0xfa01), 0, 8, 3, 0)
	f.Add(uint64(0xfa02), 0, 9, 3, 0)
	f.Add(uint64(0xfa03), 0, 10, 4, 0)
	f.Add(uint64(0xfa04), 0, 8, 3, 3)
	f.Add(uint64(0xfa05), 0, 9, 2, 3)
	f.Add(uint64(0xfa06), 0, 10, 3, 4)
	f.Fuzz(func(t *testing.T, seed uint64, algoIdx, famIdx, n, stratIdx int) {
		// Clamp through unsigned arithmetic: negating math.MinInt overflows
		// back to itself, so a signed abs-then-mod can stay negative.
		n = 1 + int(uint(n)%8)
		fams := append(All(), FaultFamilies()...)
		fam := fams[uint(famIdx)%uint(len(fams))]
		cfg := core.Config{Seed: seed | 1} // 0 would silently fall back to the default seed
		mk := func(n int, seed uint64) check.Renamer {
			c := cfg
			c.Seed = seed | 1
			switch uint(algoIdx) % 3 {
			case 0:
				return core.NewBasic(n, 512, c)
			case 1:
				// Fallback lane enabled: names may exceed MaxName by design,
				// but exclusiveness must survive the extra lane too.
				return core.NewEfficient(n, n, c)
			default:
				return core.NewAdaptive(n, c)
			}
		}
		suite := check.Suite{check.Exclusive(), check.Returned()}
		if !fam.Model.Atomic() {
			mk = func(n int, seed uint64) check.Renamer { return compete.NewFirstFit(n) }
			suite = check.Suite{check.Returned()}
		}
		var maker StrategyMaker
		switch uint(stratIdx) % 5 {
		case 0:
			// The original direct path: one seeded driven run.
			r := mk(n, seed)
			run := check.DriveModel(r, n, nil, fam.Model, fam.NewPolicy(seed, n), fam.NewPlan(seed, n))
			if run.Res.Err != nil {
				t.Fatalf("process panic under %s n=%d seed=%#x: %v", fam.Name, n, seed, run.Res.Err)
			}
			if err := suite.Check(run); err != nil {
				t.Fatalf("invariant violated under %s n=%d seed=%#x: %v", fam.Name, n, seed, err)
			}
			return
		case 1:
			maker = SourceDPOR(24, 0)
			n = 1 + (n-1)%4 // tree walks stay tiny
		case 2:
			maker = SleepSets(24, 1)
			n = 1 + (n-1)%4
		case 3:
			maker = SourceDPOR(24, 1)
			n = 1 + (n-1)%4
		default:
			maker = CoverageGuided(16)
		}
		out := Explore(Spec{
			Label:    "fuzz",
			New:      mk,
			Suite:    func(int, string) check.Suite { return suite },
			Ns:       []int{n},
			Families: []Family{fam},
			Runs:     16,
			Seed:     seed,
			Strategy: maker,
		})
		for _, v := range out.Violations {
			t.Fatalf("invariant violated under strategy %s: %v (schedule: %s)", out.Cells[0].Strategy, v, v.Trace)
		}
	})
}
