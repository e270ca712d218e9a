package explore

// Race-analysis differential over proof cells: source-DPOR's incremental
// happens-before layer must drive a walk bit-identical to the from-scratch
// rebuild reference — same backtrack sets (asserted per backtrack by the
// differential wrapper, see raceref_test.go), and same walk counts over every
// fixture and fault model here. The fuzz arm widens the cell coordinates; its
// committed corpus pins a restart-carrying and a stale-read trace.

import (
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// checkCell walks one conformance cell under mode with model.Check's wiring:
// one instance whose lane results are read from the engine, and every
// complete execution checked against the cell's suite until the first
// violation, which it reports. A case without frame automata is skipped:
// source-DPOR cannot walk it.
func checkCell(t *testing.T, tc conformance.Case, n, maxCrashes int, m shmem.Model, budget int, mode raceMode) (st Stats, violated bool) {
	t.Helper()
	ren := tc.New(n, 1)
	fr, ok := ren.(vexec.FrameRenamer)
	if !ok {
		t.Skipf("%s ships no frame automata", tc.Name)
	}
	origs, suite := tc.Origs(n, 1), tc.Suite(n, "model")
	got, oks := make([]int64, n), make([]bool, n)
	var record check.Run
	st = Drive(sourceDPOR(budget, maxCrashes, mode), Config{
		N:     n,
		Model: m,
		Names: origs,
		Frame: func(int) func(p *shmem.Proc) vexec.Frame {
			return func(p *shmem.Proc) vexec.Frame {
				return fr.FrameRename(p.Name(), nil)
			}
		},
		OnResult: func(run int, e sched.Engine, tr sched.Trace, res sched.Result) bool {
			for pid := range got {
				got[pid], oks[pid] = e.(*vexec.Exec).Returned(pid)
			}
			if res.Err == nil {
				record.Reset(origs, got, oks, res, ren.MaxName())
				if suite.Check(&record) == nil {
					return true
				}
			}
			violated = true
			return false
		},
	})
	return st, violated
}

// walkShape is the mode-independent part of a walk: everything that
// describes the walked tree. RaceEvents and RaceNs are work accounting and
// differ across modes by design.
func walkShape(st Stats) Stats {
	st.RaceEvents, st.RaceNs = 0, 0
	return st
}

func TestIncrementalHBDifferential(t *testing.T) {
	cases := map[string]conformance.Case{}
	for _, tc := range conformance.Cases() {
		cases[tc.Name] = tc
	}
	cells := []struct {
		name       string
		algo       string
		n          int
		maxCrashes int
		model      shmem.Model
	}{
		{"majority-n3-crash1", "majority", 3, 1, shmem.Model{}},
		{"basic-n3", "basic", 3, 0, shmem.Model{}},
		{"firstfit-n2-regular-crash1", "firstfit", 2, 1, shmem.Model{Regs: shmem.RegRegular}},
		{"firstfit-n2-safe-crash1", "firstfit", 2, 1, shmem.Model{Regs: shmem.RegSafe}},
		{"basic-n2-recovery-crash1", "basic", 2, 1, shmem.Model{Recovery: true}},
		{"efficient-n2-crash1", "efficient", 2, 1, shmem.Model{}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			tc, ok := cases[cell.algo]
			if !ok {
				t.Fatalf("conformance case %s missing", cell.algo)
			}
			inc, iv := checkCell(t, tc, cell.n, cell.maxCrashes, cell.model, 0, raceIncremental)
			reb, rv := checkCell(t, tc, cell.n, cell.maxCrashes, cell.model, 0, raceRebuild)
			// The differential mode re-runs the walk asserting per-backtrack
			// equality of backtrack sets and relation rows.
			diff, dv := checkCell(t, tc, cell.n, cell.maxCrashes, cell.model, 0, raceDifferential)
			ic, rc, dc := walkShape(inc), walkShape(reb), walkShape(diff)
			if ic != rc || ic != dc || iv != rv || iv != dv {
				t.Fatalf("race modes walked different trees:\n  incremental  %+v violated=%v\n  rebuild      %+v violated=%v\n  differential %+v violated=%v", ic, iv, rc, rv, dc, dv)
			}
			if !inc.Complete || iv {
				t.Fatalf("cell must exhaust its tree unviolated, got %+v violated=%v", inc, iv)
			}
			if inc.RaceEvents == 0 || reb.RaceEvents == 0 {
				t.Fatalf("race accounting missing: incremental %d, rebuild %d", inc.RaceEvents, reb.RaceEvents)
			}
			if inc.RaceEvents > reb.RaceEvents {
				t.Fatalf("incremental layer derived %d rows, rebuild %d — the layer must never do more", inc.RaceEvents, reb.RaceEvents)
			}
			t.Logf("%d executions; hb rows: %d incremental vs %d rebuild (%.1fx less)",
				inc.Executions, inc.RaceEvents, reb.RaceEvents, float64(reb.RaceEvents)/float64(inc.RaceEvents))
		})
	}
}

// FuzzIncrementalHB mutates the cell coordinates — algorithm, population,
// crash budget, fault model — and walks the cell under raceDifferential: the
// wrapper panics on the first backtrack where the incremental relation or
// the backtrack sets it feeds diverge from the from-scratch reference. The
// committed corpus includes a restart-carrying cell (recovery model) and a
// stale-read cell (regular registers).
func FuzzIncrementalHB(f *testing.F) {
	f.Add(0, 3, 1, 0) // majority n=3, crash branching, atomic
	f.Add(1, 2, 1, 3) // basic n=2, recovery: restart-carrying traces
	f.Add(6, 2, 1, 1) // firstfit n=2, regular regs: stale-read traces
	f.Add(3, 2, 1, 0) // efficient n=2: Ref registers, budget-capped
	cases := conformance.Cases()
	f.Fuzz(func(t *testing.T, algo, n, crashes, modelBits int) {
		abs := func(v int) int {
			if v < 0 {
				// MinInt-safe: any fixed non-negative fallback keeps the
				// mapping total.
				if v == -v {
					return 0
				}
				return -v
			}
			return v
		}
		tc := cases[abs(algo)%len(cases)]
		pop := 2 + abs(n)%2
		maxCrashes := abs(crashes) % pop
		var m shmem.Model
		switch abs(modelBits) % 3 {
		case 1:
			m.Regs = shmem.RegRegular
		case 2:
			m.Regs = shmem.RegSafe
		}
		if (abs(modelBits)/3)%2 == 1 {
			m.Recovery = true
		}
		// The budget caps cells whose trees don't exhaust (stage-chaining
		// algorithms); a budgeted walk still differentials every backtrack
		// it performs. Expected invariant violations (firstfit under weak
		// registers) stop the walk cleanly and are not failures here.
		checkCell(t, tc, pop, maxCrashes, m, 3000, raceDifferential)
	})
}
