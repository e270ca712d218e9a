package model_test

// Report-level engine differential: a model-checking run is a function of
// the tree, not of the engine that executes it. The vectorized engine is the
// only one with checkpoint/restore, so the goroutine oracle is brought in
// two ways:
//
//   - sleep-set cells walk on both engines and must produce byte-identical
//     Reports — same execution, prefix, decision, prune and replay counts,
//     and the same verdict;
//   - source-DPOR cells must reach the verdict, completeness and execution
//     count of a sleep-set walk on the oracle, and every leaf of the source-DPOR walk is
//     replayed on a fresh goroutine controller, which must land on the same
//     Result, fingerprint and outcomes and pass the suite.
//
// The exhaustive trace-level crosscheck lives in vexec_crosscheck_test.go;
// this test certifies the layer above it — what the prover actually reports.

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// oracleOnly hides a renamer's frame automata (vexec.FrameRenamer), so
// model.Check walks it on the goroutine oracle.
type oracleOnly struct{ check.Renamer }

func TestEngineReportDifferential(t *testing.T) {
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
		walker     model.Walker
		// oracleCrashes is the crash budget of the oracle sleep-set walk a
		// source-DPOR cell's verdict is compared with; -1 means maxCrashes.
		oracleCrashes int
	}{
		// The default stateful walker, crash-free and with full branching.
		{"majority-n3-sourcedpor", "majority", 3, 0, shmem.Model{}, model.WalkerSourceDPOR, -1},
		{"majority-n3-sourcedpor-crash1", "majority", 3, 1, shmem.Model{}, model.WalkerSourceDPOR, -1},
		{"firstfit-n2-sourcedpor-crash1", "firstfit", 2, 1, shmem.Model{}, model.WalkerSourceDPOR, -1},
		// The stateless walker: counts must agree across engines.
		{"basic-n3-sleepset", "basic", 3, 0, shmem.Model{}, model.WalkerSleepSet, -1},
		{"firstfit-n2-sleepset-crash1", "firstfit", 2, 1, shmem.Model{}, model.WalkerSleepSet, -1},
		// Fault models: stale-choice branching and restart branching add
		// engine-driven decisions to the tree.
		{"firstfit-n2-safe", "firstfit", 2, 1, shmem.Model{Regs: shmem.RegSafe}, model.WalkerSourceDPOR, -1},
		{"basic-n2-recovery", "basic", 2, 1, shmem.Model{Recovery: true}, model.WalkerSourceDPOR, -1},
		{"firstfit-n2-recovery", "firstfit", 2, 1, shmem.Model{Recovery: true}, model.WalkerSourceDPOR, -1},
		// A stage-chaining algorithm (snapshot frames, Ref registers). Its
		// oracle sleep-set walk is crash-free to stay affordable; the leaf
		// replay covers the crash branches.
		{"efficient-n2-sourcedpor", "efficient", 2, 1, shmem.Model{}, model.WalkerSourceDPOR, 0},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			tc, ok := cases[cell.algo]
			if !ok {
				t.Fatalf("conformance case %s missing", cell.algo)
			}
			run := func(oracle bool, walker model.Walker, maxCrashes int) model.Report {
				mk := func() check.Renamer { return tc.New(cell.n, 1) }
				if oracle {
					mk = func() check.Renamer { return oracleOnly{tc.New(cell.n, 1)} }
				}
				rep := model.Check(tc.Name, mk, cell.n, tc.Origs(cell.n, 1), tc.Suite(cell.n, "model"),
					model.Options{MaxCrashes: maxCrashes, Model: cell.model, Walker: walker})
				want := model.EngineVexec
				if oracle {
					want = model.EngineGoroutine
				}
				if rep.Engine != want {
					t.Fatalf("walk ran on %v, want %v", rep.Engine, want)
				}
				return rep
			}
			if cell.walker == model.WalkerSleepSet {
				g := run(true, model.WalkerSleepSet, cell.maxCrashes)
				v := run(false, model.WalkerSleepSet, cell.maxCrashes)
				type counts struct {
					Executions, Partial, Explored, Pruned, Replayed, Restored int
					Complete                                                  bool
				}
				gc := counts{g.Executions, g.Partial, g.Explored, g.Pruned, g.Replayed, g.Restored, g.Complete}
				vc := counts{v.Executions, v.Partial, v.Explored, v.Pruned, v.Replayed, v.Restored, v.Complete}
				if gc != vc {
					t.Fatalf("reports diverge:\n  goroutine %+v\n  vexec     %+v", gc, vc)
				}
				if (g.Violation == nil) != (v.Violation == nil) {
					t.Fatalf("verdicts diverge: goroutine violation %v, vexec %v", g.Violation, v.Violation)
				}
				if !g.Proven() {
					t.Fatalf("cell must prove on both engines, got %s", g.Summary())
				}
				t.Logf("both engines: %d executions, %d decisions, %d replayed", gc.Executions, gc.Explored, gc.Replayed)
				return
			}
			oc := cell.oracleCrashes
			if oc < 0 {
				oc = cell.maxCrashes
			}
			src := run(false, model.WalkerSourceDPOR, oc)
			ref := run(true, model.WalkerSleepSet, oc)
			// Sleep sets walk no class twice and the exhaustive walk misses
			// none, so both execution counts are the number of classes.
			if (src.Violation == nil) != (ref.Violation == nil) || src.Complete != ref.Complete || src.Executions != ref.Executions {
				t.Fatalf("source-DPOR and the oracle's sleep-set walk disagree:\n  %s\n  %s", src.Summary(), ref.Summary())
			}
			if !src.Proven() {
				t.Fatalf("cell must prove, got %s", src.Summary())
			}
			leaves := replayLeaves(t, tc, cell.n, cell.maxCrashes, cell.model)
			t.Logf("%s; %s; %d source-DPOR leaves (crashes<=%d) replayed on the oracle",
				src.Summary(), ref.Summary(), leaves, cell.maxCrashes)
		})
	}
}

// replayLeaves walks the complete source-DPOR tree of tc on vexec (driving
// explore.Drive directly) and replays every completed execution's trace on a
// fresh goroutine controller, which must reproduce the execution's Result,
// fingerprint and rename outcomes and pass the suite. It returns the number
// of leaves replayed.
func replayLeaves(t *testing.T, tc conformance.Case, n, maxCrashes int, m shmem.Model) int {
	t.Helper()
	origs := tc.Origs(n, 1)
	suite := tc.Suite(n, "model")
	r := tc.New(n, 1)
	fr := r.(vexec.FrameRenamer)
	got := make([]int64, n)
	oks := make([]bool, n)
	leaves := 0
	st := explore.Drive(explore.NewSourceDPOR(0, maxCrashes), explore.Config{
		N:     n,
		Model: m,
		Names: origs,
		Frame: func(int) func(p *shmem.Proc) vexec.Frame {
			return func(p *shmem.Proc) vexec.Frame {
				return vexec.Capture(fr.FrameRename(p.Name(), nil), &got[p.ID()], &oks[p.ID()], nil)
			}
		},
		Reset: func(pid int) { got[pid], oks[pid] = 0, false },
		OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
			leaves++
			if err := replayLeaf(tc, n, m, origs, suite, tr, res, got, oks); err != nil {
				t.Fatalf("leaf %d (%s): %v", run, tr, err)
			}
			return true
		},
	})
	if !st.Complete {
		t.Fatalf("source-DPOR walk incomplete: %+v", st)
	}
	return leaves
}

// replayLeaf replays one leaf trace on a fresh oracle and compares it with
// the vexec execution that recorded it.
func replayLeaf(tc conformance.Case, n int, m shmem.Model, origs []int64, suite check.Suite, tr sched.Trace, want sched.Result, wantGot []int64, wantOks []bool) error {
	r := tc.New(n, 1)
	got := make([]int64, n)
	oks := make([]bool, n)
	c := sched.NewController(n, origs, func(p *shmem.Proc) {
		got[p.ID()], oks[p.ID()] = r.Rename(p, p.Name())
	})
	defer c.Abort()
	if !m.Atomic() {
		c.SetModel(m)
	}
	if err := c.ApplyTrace(tr); err != nil {
		return err
	}
	res := c.Result()
	if res.Fingerprint != want.Fingerprint {
		return fmt.Errorf("oracle fingerprint %#x, vexec %#x", res.Fingerprint, want.Fingerprint)
	}
	if (res.Err == nil) != (want.Err == nil) {
		return fmt.Errorf("oracle err %v, vexec %v", res.Err, want.Err)
	}
	for pid := 0; pid < n; pid++ {
		if res.Steps[pid] != want.Steps[pid] || res.Crashed[pid] != want.Crashed[pid] {
			return fmt.Errorf("pid %d: oracle (%d steps, crashed=%v), vexec (%d, %v)",
				pid, res.Steps[pid], res.Crashed[pid], want.Steps[pid], want.Crashed[pid])
		}
		if len(res.Restarts) != len(want.Restarts) || (res.Restarts != nil && res.Restarts[pid] != want.Restarts[pid]) {
			return fmt.Errorf("pid %d: oracle restarts %v, vexec %v", pid, res.Restarts, want.Restarts)
		}
		if got[pid] != wantGot[pid] || oks[pid] != wantOks[pid] {
			return fmt.Errorf("pid %d: oracle rename (%d,%v), vexec (%d,%v)", pid, got[pid], oks[pid], wantGot[pid], wantOks[pid])
		}
	}
	return suite.Check(check.NewRun(origs, got, oks, res, r.MaxName()))
}
