package main

import (
	"strings"
	"testing"
)

// rows builds a synthetic result: the off row at 100 ns/op, the atomic row
// at knob times that, and the churn vexec row at churn times the goroutine
// row's names/sec.
func rows(knob, churn float64) []Row {
	return []Row{
		{Section: "fault_model_step", Name: "off", N: 8, NsPerOp: 100},
		{Section: "fault_model_step", Name: "atomic", N: 8, NsPerOp: 100 * knob},
		{Section: "churn", Name: "goroutine", N: 64, OpsPerSec: 1e5},
		{Section: "churn", Name: "vexec", N: 64, OpsPerSec: 1e5 * churn},
	}
}

// failed reports whether some gate error mentions gate.
func failed(errs []error, gate string) bool {
	for _, err := range errs {
		if strings.Contains(err.Error(), gate) {
			return true
		}
	}
	return false
}

func TestGates(t *testing.T) {
	for _, tc := range []struct {
		name        string
		knob, churn float64
		quick       bool
		want        []string // gates that must fail; every other gate must pass
	}{
		{"both pass", 1.04, 5.1, false, nil},
		{"knob-off 1.06 fails", 1.06, 5.1, false, []string{"knob-off"}},
		{"knob-off 1.06 fails under quick", 1.06, 5.1, true, []string{"knob-off"}},
		{"churn 4.9x fails on a full run", 1.04, 4.9, false, []string{"churn"}},
		{"churn 4.9x ignored under quick", 1.04, 4.9, true, nil},
		{"both fail", 1.06, 4.9, false, []string{"knob-off", "churn"}},
	} {
		errs := gates(rows(tc.knob, tc.churn), tc.quick)
		if len(errs) != len(tc.want) {
			t.Errorf("%s: got %d errors %v, want failures of %v", tc.name, len(errs), errs, tc.want)
			continue
		}
		for _, g := range tc.want {
			if !failed(errs, g) {
				t.Errorf("%s: the %s gate passed, want it failed (errors %v)", tc.name, g, errs)
			}
		}
	}
}

// TestGatesMissingRows: a gate whose input rows are absent fails, in quick
// mode too.
func TestGatesMissingRows(t *testing.T) {
	all := rows(1.0, 10)
	for _, tc := range []struct {
		drop, gate string
	}{
		{"off", "knob-off"},
		{"atomic", "knob-off"},
		{"goroutine", "churn"},
		{"vexec", "churn"},
	} {
		var kept []Row
		for _, r := range all {
			if r.Name != tc.drop {
				kept = append(kept, r)
			}
		}
		for _, quick := range []bool{false, true} {
			errs := gates(kept, quick)
			if len(errs) != 1 || !failed(errs, tc.gate) {
				t.Errorf("without the %s row (quick=%v): got %v, want one %s gate error", tc.drop, quick, errs, tc.gate)
			}
		}
	}
}
