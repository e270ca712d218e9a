package model_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
)

// TestProveWalkCountsPinned fixes the Report counts of the benchmark's three
// proof walks (default options: source-DPOR on the vectorized engine,
// conformance seed 1). Restore is a performance layer only: a change
// to it that alters which tree the walk explores — an unmoved lane restored
// wrongly, a frame rewound to the wrong watermark — moves one of these
// numbers. No node is cut by a state hash, so the counts are those of pure
// source-set DPOR with sleep sets, dead crash branches settled unwalked
// (TestCrashBranchingClassSets checks that this keeps every class).
func TestProveWalkCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three complete proof walks; run without -short")
	}
	for _, want := range []struct {
		name                          string
		n, crashes                    int
		executions, partial, explored int
		pruned, restored              int
	}{
		{"efficient", 2, 1, 35470, 0, 193416, 72620, 35469},
		{"basic", 5, 4, 4651, 1545, 22770, 32795, 6195},
		{"almostadaptive", 4, 3, 4641, 530, 25410, 20090, 5170},
	} {
		var tc conformance.Case
		for _, c := range conformance.Cases() {
			if c.Name == want.name {
				tc = c
			}
		}
		if tc.New == nil {
			t.Fatalf("no conformance case %q", want.name)
		}
		n := want.n
		rep := model.Check(tc.Name, func() check.Renamer { return tc.New(n, 1) },
			n, tc.Origs(n, 1), tc.Suite(n, "model"), model.Options{MaxCrashes: want.crashes})
		if !rep.Proven() || rep.Engine != model.EngineVexec {
			t.Fatalf("%s n=%d: not proven on vexec: %s", want.name, n, rep.Summary())
		}
		got := [...]int{rep.Executions, rep.Partial, rep.Explored, rep.Pruned, rep.Restored}
		exp := [...]int{want.executions, want.partial, want.explored, want.pruned, want.restored}
		if got != exp {
			t.Errorf("%s n=%d crashes<=%d: (executions, partial, decisions, pruned, restored) = %v, want %v",
				want.name, n, want.crashes, got, exp)
		}
	}
}
