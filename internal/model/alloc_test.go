package model_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
)

// TestProveWalksAllocationFree holds the benchmark's three proof walks to at
// most half an allocation per walked execution (complete plus partial): the
// per-execution buffers — the checked run record, the engine result, the
// frames' sleep sets and stale-variant counts — are owned by the walk and
// reused, so what a walk allocates is its setup and the growth of its stacks.
func TestProveWalksAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("six complete proof walks; run without -short")
	}
	for _, cell := range []struct {
		name       string
		n, crashes int
	}{
		{"efficient", 2, 1},
		{"basic", 5, 4},
		{"almostadaptive", 4, 3},
	} {
		var tc conformance.Case
		for _, c := range conformance.Cases() {
			if c.Name == cell.name {
				tc = c
			}
		}
		n := cell.n
		origs, suite := tc.Origs(n, 1), tc.Suite(n, "model")
		var rep model.Report
		allocs := testing.AllocsPerRun(1, func() {
			rep = model.Check(tc.Name, func() check.Renamer { return tc.New(n, 1) },
				n, origs, suite, model.Options{MaxCrashes: cell.crashes})
		})
		if !rep.Proven() {
			t.Fatalf("%s n=%d: %s", cell.name, n, rep.Summary())
		}
		walked := rep.Executions + rep.Partial
		per := allocs / float64(walked)
		t.Logf("%s n=%d crashes<=%d: %.0f allocations over %d executions (%.3f each)", cell.name, n, cell.crashes, allocs, walked, per)
		if per > 0.5 {
			t.Errorf("%s n=%d crashes<=%d: %.3f allocations per walked execution, want at most 0.5",
				cell.name, n, cell.crashes, per)
		}
	}
}
