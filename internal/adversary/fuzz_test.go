package adversary

import (
	"testing"

	"repro/internal/check"
	"repro/internal/compete"
	"repro/internal/core"
	"repro/internal/model"
)

// FuzzRenameSchedule fuzzes the (algorithm, family, population, seed, arm)
// space: the seed determinizes the sampled expander graphs, the schedule and
// the crash pattern at once, so every crashing input is a complete
// reproducer. stratIdx selects the arm driving the schedules:
//
//	0  one seeded run driven directly through check.DriveModel
//	1  a 24-execution model.Check walk: schedule-only source-DPOR
//	2  a 24-execution model.Check walk: sleep sets, crash branching ≤ 1
//	3  a 24-execution model.Check walk: source-DPOR (checkpoint/restore),
//	   crash branching ≤ 1
//	4  a 16-run seeded Explore campaign over the (family, n) cell
//
// so the fuzz smoke job reaches both the sampling and the proving paths.
// Arms 1–3 walk the instance built from the input seed under the family's
// fault model, at n ≤ 4. The invariants asserted are the unconditional ones
// — exclusiveness and full accounting — which no schedule or crash pattern
// may violate.
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
	// Tree walks and campaigns over each algorithm class.
	f.Add(uint64(3), 0, 0, 2, 1)
	f.Add(uint64(0xd00a), 1, 1, 3, 1)
	f.Add(uint64(0x51ee9), 2, 0, 3, 2)
	f.Add(uint64(0xc07), 0, 5, 3, 3)
	f.Add(uint64(0xc08), 2, 2, 4, 3)
	f.Add(uint64(0xc0b), 1, 5, 3, 4)
	// Fault-model arms: staleread (8), crashrestart (9), opdelay (10),
	// across the seeded run, the tree walks and the campaign.
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
		var opt model.Options
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
			opt = model.Options{}
		case 2:
			opt = model.Options{MaxCrashes: 1, Walker: model.WalkerSleepSet}
		case 3:
			opt = model.Options{MaxCrashes: 1}
		default:
			out := Explore(Spec{
				Label:    "fuzz",
				New:      mk,
				Suite:    func(int, string) check.Suite { return suite },
				Ns:       []int{n},
				Families: []Family{fam},
				Runs:     16,
				Seed:     seed,
			})
			for _, v := range out.Violations {
				t.Fatalf("invariant violated: %v", v)
			}
			return
		}
		n = 1 + (n-1)%4 // tree walks stay tiny
		opt.Budget, opt.Model = 24, fam.Model
		rep := model.Check("fuzz", func() check.Renamer { return mk(n, seed) }, n, nil, suite, opt)
		if rep.Violation != nil {
			t.Fatalf("%s under %s seed=%#x: %v", rep.Summary(), fam.Name, seed, rep.Violation)
		}
	})
}
