package core_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
)

// TestBoundsMatchInstances pins each pure bound function to the method of a
// built instance, for n = 1..64 at the name ranges the conformance table
// uses: the table computes its suites from the functions, so a drift would
// check every run against a bound no instance claims.
func TestBoundsMatchInstances(t *testing.T) {
	cfg := core.Config{Seed: 1}
	for n := 1; n <= 64; n++ {
		mj := core.NewMajority(n, conformance.Names, cfg)
		if m, s := core.MajorityBounds(n, conformance.Names, cfg); m != mj.MaxName() || s != mj.MaxSteps() {
			t.Errorf("MajorityBounds(%d) = (%d, %d), instance (%d, %d)", n, m, s, mj.MaxName(), mj.MaxSteps())
		}
		b := core.NewBasic(n, conformance.Names, cfg)
		if m, s := core.BasicBounds(n, conformance.Names, cfg); m != b.MaxName() || s != b.MaxSteps() {
			t.Errorf("BasicBounds(%d) = (%d, %d), instance (%d, %d)", n, m, s, b.MaxName(), b.MaxSteps())
		}
		pl := core.NewPolyLog(n, conformance.PolyNames, cfg)
		if m, s := core.PolyLogBounds(n, conformance.PolyNames, cfg); m != pl.MaxName() || s != pl.MaxSteps() {
			t.Errorf("PolyLogBounds(%d) = (%d, %d), instance (%d, %d)", n, m, s, pl.MaxName(), pl.MaxSteps())
		}
		aa := core.NewAlmostAdaptive(conformance.Names, n, cfg)
		ad := core.NewAdaptive(n, cfg)
		for k := 1; k <= n+1; k++ {
			if got, want := core.AlmostAdaptiveNameBound(conformance.Names, n, k, cfg), aa.NameBound(k); got != want {
				t.Errorf("AlmostAdaptiveNameBound(n=%d, k=%d) = %d, instance %d", n, k, got, want)
			}
			if got, want := core.AdaptiveNameBound(k), ad.NameBound(k); got != want {
				t.Errorf("AdaptiveNameBound(n=%d, k=%d) = %d, instance %d", n, k, got, want)
			}
		}
	}
}
