package service_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/service"
)

// TestReplayChurnReturnsLanePanic: a churn replay whose sessions panic
// inside their acquires reports the panic, not a short session count.
func TestReplayChurnReturnsLanePanic(t *testing.T) {
	rep := adversary.ChurnReproducer{Algo: service.PanicAlgo, Family: "steady", Sessions: 200, Lanes: 8, Cap: 4, Seed: 9}
	_, err := adversary.ReplayChurn(rep)
	if err == nil || !strings.Contains(err.Error(), "panicked: "+service.PanicMsg) {
		t.Fatalf("ReplayChurn returned %v, want the lanes' panic %q", err, service.PanicMsg)
	}
}

// TestReplayChurnReturnsAuditViolation: a backend that hands two contenders
// the same local name breaks live exclusivity, and ReplayChurn reports it
// from the audit's online verifier, which stops the violating step.
func TestReplayChurnReturnsAuditViolation(t *testing.T) {
	rep := adversary.ChurnReproducer{Algo: service.DupAlgo, Family: "steady", Sessions: 200, Lanes: 8, Cap: 4, Seed: 9}
	_, err := adversary.ReplayChurn(rep)
	if err == nil || !strings.Contains(err.Error(), "service audit: live-exclusive") {
		t.Fatalf("ReplayChurn returned %v, want a live-exclusive violation", err)
	}
}
