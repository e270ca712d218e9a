package service

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunSurfacesLanePanic swaps one generation's backend for one whose
// acquires panic: the lanes that joined it stop, the others keep serving,
// and once the loop ends Run panics with the first panicked lane's error
// instead of returning metrics that silently lost those sessions.
func TestRunSurfacesLanePanic(t *testing.T) {
	const msg = "swapped backend: acquire stopped"
	for _, mk := range []func(*Service, Workload) *Driver{NewVexecDriver, NewGoroutineDriver} {
		svc := New(Config{Cap: 4, Algo: "firstfit", Seed: 3, Audit: true})
		d := mk(svc, Workload{Sessions: 200, Lanes: 8, Seed: 9, HoldMin: 0, HoldMax: 8, MaxGrants: 1_000_000})
		// Lanes 0-3 joined the shard's first generation at construction,
		// lanes 4-7 the second.
		g := d.lanes[0].g
		g.backend = panicBackend{Backend: g.backend, msg: msg}
		t.Run(d.engine, func(t *testing.T) {
			got := func() (r any) {
				defer func() { r = recover() }()
				d.Run()
				return nil
			}()
			if got == nil || !strings.Contains(fmt.Sprint(got), "process 0 panicked: "+msg) {
				t.Fatalf("Run panicked with %v, want process 0's %q", got, msg)
			}
			if served := d.acquired + d.failed; served < 100 {
				t.Fatalf("the lanes of the other generations served %d sessions, want most of 200", served)
			}
		})
	}
}
