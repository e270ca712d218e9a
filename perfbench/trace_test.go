package main

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/shmem"
)

// brokenRenamer plants the unconfirmed-claim exclusiveness bug: it takes the
// first slot it reads as null without re-reading, so two processes whose
// null-reads interleave both adopt the slot.
type brokenRenamer struct{ slots []shmem.Reg }

func (b *brokenRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for i := range b.slots {
		if p.Read(&b.slots[i]) == shmem.Null {
			p.Write(&b.slots[i], orig)
			return int64(i + 1), true
		}
	}
	return 0, false
}

func (b *brokenRenamer) MaxName() int64 { return int64(len(b.slots)) }
func (b *brokenRenamer) Registers() int { return len(b.slots) }

var brokenCase = conformance.Case{
	Name: "broken",
	New:  func(n int, seed uint64) check.Renamer { return &brokenRenamer{slots: make([]shmem.Reg, n)} },
	Origs: func(n int, seed uint64) []int64 {
		origs := make([]int64, n)
		for i := range origs {
			origs[i] = int64(i + 1)
		}
		return origs
	},
	Suite: func(n int, family string) check.Suite { return check.Basic() },
}

func hasProblem(o outcome, sub string) bool {
	for _, p := range o.problems {
		if strings.Contains(p, sub) {
			return true
		}
	}
	return false
}

// The traced wrappers must not hide a violation: a planted bug is still
// reported, under the checker's own name, through both campaign and proof.
func TestTracedSuiteReportsPlantedViolation(t *testing.T) {
	for _, w := range []workload{
		&sample{seed: 1, cases: []conformance.Case{brokenCase}},
		&prove{seed: 1, cells: []proveCell{{brokenCase, 2, 0}}},
	} {
		tr := &tracer{census: &census{}}
		w.setup(tr)
		w.call()
		o := w.result()
		if o.failed == 0 || !hasProblem(o, "exclusive") {
			t.Errorf("%T: planted violation lost through the traced suite: failed=%d problems=%q", w, o.failed, o.problems)
		}
		if tr.checks.Load() == 0 || tr.constructs.Load() == 0 {
			t.Errorf("%T: tracer saw %d checks and %d constructs", w, tr.checks.Load(), tr.constructs.Load())
		}
	}
}

// The wrapped constructor returns the algorithm's own value, so model.Check
// still finds vexec.FrameRenamer on it and walks on the vectorized engine.
func TestTracedProveStaysOnVexec(t *testing.T) {
	w := &prove{seed: 1, cells: []proveCell{{caseByName("basic"), 3, 1}}}
	w.setup(&tracer{})
	w.call()
	if o := w.result(); len(o.problems) > 0 || o.failed > 0 {
		t.Fatalf("traced walk failed its checks: %q", o.problems)
	}
	if got := w.reports[0].Engine; got != model.EngineVexec {
		t.Fatalf("traced walk ran on %v, want vexec", got)
	}
}

// hiddenFrames is the wrapper the engine check exists for: embedding only
// check.Renamer drops the FrameRenamer method set.
type hiddenFrames struct{ check.Renamer }

func TestProveFlagsWalkOffVexec(t *testing.T) {
	c := caseByName("basic")
	inner := c.New
	c.New = func(n int, seed uint64) check.Renamer { return hiddenFrames{inner(n, seed)} }
	w := &prove{seed: 1, cells: []proveCell{{c, 3, 1}}}
	w.setup(nil)
	w.call()
	if o := w.result(); !hasProblem(o, "want vexec") {
		t.Fatalf("a walk on the goroutine oracle passed the engine check: %q", o.problems)
	}
}

func TestChurnAuditPasses(t *testing.T) {
	for _, fam := range []string{"steady", "crashnorelease"} {
		w := &churn{family: fam, seed: 2}
		if o := w.audit(); len(o.problems) > 0 || o.failed > 0 || o.attempted != auditSessions {
			t.Errorf("%s: audit pass failed: attempted=%d failed=%d problems=%q", fam, o.attempted, o.failed, o.problems)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	hist := []int64{0, 50, 0, 49, 1} // 100 samples: 50 at 1, 49 at 3, 1 at 4
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 1}, {0.51, 3}, {0.99, 3}, {1, 4}} {
		if got := histQuantile(hist, c.q); got != c.want {
			t.Errorf("histQuantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}
