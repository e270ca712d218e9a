package model_test

// Exhaustive cross-engine check at the model layer: every complete execution
// the tree walker enumerates over a small system must replay bit-identically
// on the vectorized engine — same fingerprint, same per-pid steps and crash
// flags, same rename outcomes. The differential suite in internal/vexec
// samples schedules; this test covers *all* of them (up to sleep-set
// equivalence) for the contended firstfit fixture, including crash branching
// and the weak-register stale-choice branches.

import (
	"testing"

	"repro/internal/compete"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

type crossRec struct {
	trace sched.Trace
	res   sched.Result
	got   []int64
	oks   []bool
}

// enumerate walks the full schedule tree of a fresh firstfit instance per
// execution and records every complete execution's trace and outcome.
func enumerate(t *testing.T, n, maxCrashes int, m shmem.Model) []crossRec {
	t.Helper()
	var recs []crossRec
	var got []int64
	var oks []bool
	strat := explore.NewSleepSet(0, maxCrashes)
	explore.Drive(strat, explore.Config{
		N:     n,
		Model: m,
		Body: func(run int) sched.Body {
			ff := compete.NewFirstFit(n)
			got = make([]int64, n)
			oks = make([]bool, n)
			return func(p *shmem.Proc) {
				got[p.ID()], oks[p.ID()] = ff.Rename(p, p.Name())
			}
		},
		OnResult: func(run int, _ sched.Engine, tr sched.Trace, res sched.Result) bool {
			recs = append(recs, crossRec{
				trace: append(sched.Trace(nil), tr...),
				res:   res,
				got:   append([]int64(nil), got...),
				oks:   append([]bool(nil), oks...),
			})
			return true
		},
	})
	if !strat.Stats().Complete {
		t.Fatalf("sleep-set walk did not exhaust the tree (n=%d crashes=%d model=%v)", n, maxCrashes, m)
	}
	return recs
}

func replayOnVexec(t *testing.T, n int, m shmem.Model, rec crossRec, label string) {
	t.Helper()
	ff := compete.NewFirstFit(n)
	e := vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame { return ff.FrameRename(p.Name(), nil) })
	if !m.Atomic() {
		e.SetModel(m)
	}
	if err := e.ApplyTrace(rec.trace); err != nil {
		t.Fatalf("%s: vexec replay: %v", label, err)
	}
	res := e.Result()
	if res.Fingerprint != rec.res.Fingerprint {
		t.Fatalf("%s: fingerprint: oracle %#x, vexec %#x", label, rec.res.Fingerprint, res.Fingerprint)
	}
	for pid := 0; pid < n; pid++ {
		if res.Steps[pid] != rec.res.Steps[pid] || res.Crashed[pid] != rec.res.Crashed[pid] {
			t.Fatalf("%s: pid %d: oracle (steps %d crashed %v), vexec (steps %d crashed %v)",
				label, pid, rec.res.Steps[pid], rec.res.Crashed[pid], res.Steps[pid], res.Crashed[pid])
		}
		if got, ok := e.Returned(pid); got != rec.got[pid] || ok != rec.oks[pid] {
			t.Fatalf("%s: pid %d rename: oracle (%d,%v), vexec (%d,%v)",
				label, pid, rec.got[pid], rec.oks[pid], got, ok)
		}
	}
}

func TestVexecCrosscheckExhaustive(t *testing.T) {
	cells := []struct {
		name       string
		n          int
		maxCrashes int
		model      shmem.Model
	}{
		// firstfit's proven model-check cell is n=2 (see the conformance
		// table); n=3 is beyond the sleep-set walker's reach, so the
		// exhaustive crosscheck stays at n=2 across all models.
		{"n2-crashfree", 2, 0, shmem.Model{}},
		{"n2-crash1", 2, 1, shmem.Model{}},
		{"n2-safe", 2, 0, shmem.Model{Regs: shmem.RegSafe}},
		{"n2-safe-crash1", 2, 1, shmem.Model{Regs: shmem.RegSafe}},
		{"n2-regular-crash1", 2, 1, shmem.Model{Regs: shmem.RegRegular}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			recs := enumerate(t, cell.n, cell.maxCrashes, cell.model)
			if len(recs) == 0 {
				t.Fatal("no executions enumerated")
			}
			for _, rec := range recs {
				replayOnVexec(t, cell.n, cell.model, rec, cell.name)
			}
			t.Logf("%s: %d executions replayed bit-identically", cell.name, len(recs))
		})
	}
}
