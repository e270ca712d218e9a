package model_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/xrand"
)

// TestRestoreEquivalentToReplayFaultModel extends the checkpoint/restore
// ground truth to executions that exercise the full fault model: stale reads
// under safe registers, crashes, and restarts within the recovery budget.
// Restoring a mid-execution vexec snapshot and replaying the same trace
// prefix on a fresh engine (vexec, or the goroutine oracle) must land in
// indistinguishable states — the observables TestRestoreEquivalentToReplay
// compares, restart accounting and stale choices among them — and identical
// continuations (which themselves keep crashing, restarting, and reading
// stale) must produce bit-identical executions. This is the soundness base
// of fault exploration: the stateful source-DPOR walk reconstructs interior
// tree nodes by restore, while reproducers and the oracle cross-checks
// reconstruct them by replay, and both assume the two agree.
func TestRestoreEquivalentToReplayFaultModel(t *testing.T) {
	var ff conformance.Case
	for _, tc := range conformance.Cases() {
		if tc.Name == "firstfit" {
			ff = tc
		}
	}
	if ff.Name == "" {
		t.Fatal("firstfit case missing from the conformance table")
	}
	m := shmem.Model{Regs: shmem.RegSafe, Recovery: true}
	for _, pair := range enginePairs() {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			restarts, stales := 0, 0
			for trial := 0; trial < 6; trial++ {
				seed := uint64(trial+1) * 0x9e3779b97f4a7c15
				r, s := runFaultRestoreEquivalence(t, ff, 3, m, seed, pair)
				restarts += r
				stales += s
			}
			// The sweep must actually exercise the fault repertoire, or the
			// equivalence it certifies is the atomic one already covered
			// elsewhere.
			if restarts == 0 {
				t.Error("no trial performed a restart; the fault sweep is vacuous")
			}
			if stales == 0 {
				t.Error("no trial performed a stale read; the fault sweep is vacuous")
			}
		})
	}
}

// randDriveFault drives up to k random decisions over the full fault
// repertoire — steps, stale-read grants, crashes, restarts — and leaves the
// controller at a decision point. Decisions depend only on the rng stream
// and the controller's observable state, so two controllers in equivalent
// states driven by equal-seeded rngs take identical paths.
func randDriveFault(c sched.Engine, rng *xrand.Rand, k int, maxCrashes int) {
	crashes := 0
	for i := 0; i < k; i++ {
		if c.PendingCount() == 0 {
			restartable := -1
			for pid := 0; pid < c.N(); pid++ {
				if c.CanRestart(pid) {
					restartable = pid
					break
				}
			}
			if restartable < 0 || rng.Intn(2) == 0 {
				return
			}
			c.Restart(restartable)
			continue
		}
		// Occasionally restart a crashed process even while others are
		// pending — the interleaving the recovery tree branches on.
		if rng.Intn(8) == 0 {
			for pid := 0; pid < c.N(); pid++ {
				if c.CanRestart(pid) {
					c.Restart(pid)
					break
				}
			}
		}
		if c.PendingCount() == 0 {
			continue
		}
		idx := rng.Intn(c.PendingCount())
		pid := sched.NextBit(c.Pending(), -1)
		for ; idx > 0; idx-- {
			pid = sched.NextBit(c.Pending(), pid)
		}
		if crashes < maxCrashes && rng.Intn(10) == 0 {
			c.Crash(pid)
			crashes++
			continue
		}
		if n := c.StaleCount(pid); n > 0 && rng.Intn(2) == 0 {
			c.StepStale(pid, rng.Intn(n))
			continue
		}
		c.Step(pid)
	}
}

// runFaultRestoreEquivalence returns how many restarts and stale-read grants
// the full execution performed, so the caller can reject a vacuous sweep.
func runFaultRestoreEquivalence(t *testing.T, tc conformance.Case, n int, m shmem.Model, seed uint64, pair enginePair) (restarts, stales int) {
	t.Helper()

	// System 1: random faulty prefix, checkpoint, divergent continuation,
	// restore.
	c1 := mkVexec(tc, n, seed, m)
	c1.EnableTrace()
	rng := xrand.New(xrand.Mix(seed, 0x5eed))
	randDriveFault(c1, rng, 3+int(seed%11), n-1)
	snap := c1.Checkpoint()
	prefix := append(sched.Trace(nil), c1.Trace()...)
	randDriveFault(c1, xrand.New(xrand.Mix(seed, 0xd1f)), 1<<20, n-1)
	c1.Restore(snap)

	// System 2: a fresh identical instance, prefix reconstructed by replay of
	// the trace — including its crash, restart and stale-read events.
	c2, got2 := pair.replay(tc, n, seed, m)
	c2.EnableTrace()
	if err := c2.ApplyTrace(prefix); err != nil {
		t.Fatalf("seed %#x: replay: %v", seed, err)
	}
	// Identical faulty continuations must produce bit-identical executions.
	checkRestoreEquivalence(t, seed, n, c1, c2, got2, func(c sched.Engine) {
		randDriveFault(c, xrand.New(xrand.Mix(seed, 0xf1a1)), 1<<20, n-1)
	})
	for _, ev := range c1.Trace() {
		if ev.Restart {
			restarts++
		}
		if ev.Stale > 0 {
			stales++
		}
	}
	return restarts, stales
}
