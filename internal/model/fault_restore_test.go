package model_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// TestRestoreEquivalentToReplayFaultModel extends the checkpoint/restore
// ground truth to executions that exercise the full fault model: stale reads
// under safe registers, crashes, and restarts within the recovery budget.
// Restoring a mid-execution vexec snapshot and replaying the same trace
// prefix on a fresh engine (vexec, or the goroutine oracle) must land in
// indistinguishable states — same hash (vexec replay), fingerprint, read
// logs, restart accounting — and identical continuations
// (which themselves keep crashing, restarting, and reading stale) must
// produce bit-identical executions. This is the soundness base of fault
// exploration: the stateful source-DPOR engine reconstructs interior tree
// nodes by exactly these two mechanisms and assumes they agree.
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
		pid := c.NextPending(-1)
		for ; idx > 0; idx-- {
			pid = c.NextPending(pid)
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
	c1, got1, reset1 := mkVexec(tc, n, seed, m)
	c1.EnableTrace()
	rng := xrand.New(xrand.Mix(seed, 0x5eed))
	randDriveFault(c1, rng, 3+int(seed%11), n-1)
	snap := c1.Checkpoint()
	prefix := append(sched.Trace(nil), c1.Trace()...)
	wantHash := c1.StateHash()
	wantFP := c1.Fingerprint()
	wantRestarts := c1.Restarts()
	randDriveFault(c1, xrand.New(xrand.Mix(seed, 0xd1f)), 1<<20, n-1)
	c1.Restore(snap, reset1)

	if got := c1.StateHash(); got != wantHash {
		t.Fatalf("seed %#x: restore hash %x != checkpoint hash %x", seed, got, wantHash)
	}
	if c1.Fingerprint() != wantFP {
		t.Fatalf("seed %#x: restore fingerprint %#x != checkpoint %#x", seed, c1.Fingerprint(), wantFP)
	}
	if c1.Restarts() != wantRestarts {
		t.Fatalf("seed %#x: restore restart budget %d != checkpoint %d", seed, c1.Restarts(), wantRestarts)
	}

	// System 2: a fresh identical instance, prefix reconstructed by replay of
	// the trace — including its crash, restart and stale-read events.
	c2, got2 := pair.replay(tc, n, seed, m)
	c2.EnableTrace()
	if err := c2.ApplyTrace(prefix); err != nil {
		t.Fatalf("seed %#x: replay: %v", seed, err)
	}
	if e2, ok := c2.(*vexec.Exec); ok {
		// The vexec replay must agree bit-for-bit; the oracle has no state
		// hash and still certifies reads, fingerprints and continuations
		// below.
		if h := e2.StateHash(); h != wantHash {
			t.Fatalf("seed %#x: replayed engine hash %x != checkpoint hash %x", seed, h, wantHash)
		}
	}
	if c2.Fingerprint() != wantFP {
		t.Fatalf("seed %#x: replayed fingerprint %#x != %#x", seed, c2.Fingerprint(), wantFP)
	}
	if c2.Restarts() != wantRestarts {
		t.Fatalf("seed %#x: replayed restart budget %d != %d", seed, c2.Restarts(), wantRestarts)
	}
	for pid := 0; pid < n; pid++ {
		p1, p2 := c1.Proc(pid), c2.Proc(pid)
		if p1.Steps() != p2.Steps() || p1.ReadLogLen() != p2.ReadLogLen() || p1.Restarts() != p2.Restarts() {
			t.Fatalf("seed %#x: proc %d position (%d steps, %d reads, %d restarts) != replay (%d, %d, %d)",
				seed, pid, p1.Steps(), p1.ReadLogLen(), p1.Restarts(), p2.Steps(), p2.ReadLogLen(), p2.Restarts())
		}
		for i := 0; i < p1.ReadLogLen(); i++ {
			w1, ref1 := p1.ReadWord(i)
			w2, ref2 := p2.ReadWord(i)
			if ref1 != ref2 || (!ref1 && w1 != w2) {
				t.Fatalf("seed %#x: proc %d read %d: restored (%d,%v) != replayed (%d,%v)", seed, pid, i, w1, ref1, w2, ref2)
			}
		}
	}
	// Identical faulty continuations must produce bit-identical executions.
	finish := func(c sched.Engine) sched.Result {
		r := xrand.New(xrand.Mix(seed, 0xf1a1))
		randDriveFault(c, r, 1<<20, n-1)
		return c.Result()
	}
	res1, res2 := finish(c1), finish(c2)
	if res1.Fingerprint != res2.Fingerprint {
		t.Fatalf("seed %#x: continuation fingerprints diverge: %#x vs %#x", seed, res1.Fingerprint, res2.Fingerprint)
	}
	for pid := 0; pid < n; pid++ {
		if res1.Steps[pid] != res2.Steps[pid] || res1.Crashed[pid] != res2.Crashed[pid] {
			t.Fatalf("seed %#x: proc %d outcome (%d steps, crashed=%v) != (%d, %v)",
				seed, pid, res1.Steps[pid], res1.Crashed[pid], res2.Steps[pid], res2.Crashed[pid])
		}
		if got1[pid] != got2[pid] {
			t.Fatalf("seed %#x: proc %d acquired name %d after restore, %d after replay", seed, pid, got1[pid], got2[pid])
		}
	}
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
