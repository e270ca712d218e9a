package model_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// TestRestoreEquivalentToReplay is the checkpoint/restore ground truth for
// the real algorithms: over randomized traces of all six, restoring a
// mid-execution snapshot must land bit-identically where (a) the same
// engine stood at capture time — same StateHash, fingerprint, read logs
// — and (b) where a fresh engine lands by replay of the same
// prefix: same observable reads, same pending intents, and a bit-identical
// continuation (same schedule fingerprint, steps, and acquired names under
// identical subsequent decisions).
//
// The equivalence is checked on both execution engines, and across them:
// the snapshot side runs on the vectorized engine while the replay side
// reconstructs on the goroutine oracle (engine pair "vexec/goroutine"),
// which is exactly the reconstruction contract engine-mixed tooling relies
// on (a vexec-discovered violation replayed on a goroutine controller).
//
// StateHash is additionally compared across the two engines for the
// algorithms built purely from scalar registers; the snapshot-based stages
// of Efficient and Adaptive hash Ref contents by write stamp, which is
// canonical within one engine instance only.
func TestRestoreEquivalentToReplay(t *testing.T) {
	scalarOnly := map[string]bool{"majority": true, "basic": true, "polylog": true, "almostadaptive": true}
	for _, tc := range conformance.Cases() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, pair := range enginePairs(tc) {
				pair := pair
				t.Run(pair.name, func(t *testing.T) {
					for trial := 0; trial < 4; trial++ {
						seed := uint64(trial+1) * 0x9e3779b9
						// Cross-engine hash comparison needs scalar registers
						// AND identical engines per side for Ref-bearing
						// algorithms; same-engine pairs follow the scalarOnly
						// rule as before.
						runRestoreEquivalence(t, tc, 3, seed, scalarOnly[tc.Name], pair)
					}
				})
			}
		})
	}
}

// enginePair builds the two sides of one equivalence run: snap is the engine
// that checkpoints and restores, replay the one that reconstructs the prefix
// from the trace.
type enginePair struct {
	name   string
	snap   func(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.StateEngine, []int64, func(pid int))
	replay func(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.StateEngine, []int64, func(pid int))
}

func mkGoroutine(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.StateEngine, []int64, func(pid int)) {
	r := tc.New(n, seed)
	got := make([]int64, n)
	c := sched.NewController(n, tc.Origs(n, seed), func(p *shmem.Proc) {
		got[p.ID()] = 0
		name, ok := r.Rename(p, p.Name())
		if ok {
			got[p.ID()] = name
		}
	})
	if !m.Atomic() {
		c.SetModel(m)
	}
	c.EnableState()
	// The respawned bodies zero their own entries; an explicit reset is not
	// needed but returned for signature uniformity with the vexec builder.
	return c, got, func(pid int) { got[pid] = 0 }
}

func mkVexec(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.StateEngine, []int64, func(pid int)) {
	fr := tc.New(n, seed).(vexec.FrameRenamer)
	got := make([]int64, n)
	oks := make([]bool, n)
	e := vexec.New(n, tc.Origs(n, seed), func(p *shmem.Proc) vexec.Frame {
		return vexec.Capture(fr.FrameRename(p.Name()), &got[p.ID()], &oks[p.ID()])
	})
	if !m.Atomic() {
		e.SetModel(m)
	}
	e.EnableState()
	// Capture writes a lane's outcome only at completion, so stale outcomes
	// from an abandoned branch must be cleared for every lane the restore
	// re-roots — the same per-lane Config.Reset contract the search drivers
	// use.
	return e, got, func(pid int) { got[pid], oks[pid] = 0, false }
}

// enginePairs returns the engine combinations to certify: both same-engine
// pairs always, plus the cross-engine pair when the algorithm ships frame
// automata (every conformance case does; the guard keeps the test honest if
// a frameless case is ever added).
func enginePairs(tc conformance.Case) []enginePair {
	pairs := []enginePair{{name: "goroutine", snap: mkGoroutine, replay: mkGoroutine}}
	if _, ok := tc.New(2, 1).(vexec.FrameRenamer); ok {
		pairs = append(pairs,
			enginePair{name: "vexec", snap: mkVexec, replay: mkVexec},
			enginePair{name: "vexec-to-goroutine", snap: mkVexec, replay: mkGoroutine},
		)
	}
	return pairs
}

// randDrive drives k random decisions (with an occasional crash) and leaves
// the engine at a decision point. It mirrors the adversary's full power:
// the prefix is an arbitrary schedule-and-crash pattern.
func randDrive(c sched.Engine, rng *xrand.Rand, k int, maxCrashes int) {
	crashes := 0
	for i := 0; i < k && c.PendingCount() > 0; i++ {
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
		c.Step(pid)
	}
}

func runRestoreEquivalence(t *testing.T, tc conformance.Case, n int, seed uint64, compareHash bool, pair enginePair) {
	t.Helper()
	var m shmem.Model // the paper's: atomic registers, fail-stop

	// System 1: random prefix, checkpoint, divergent continuation, restore.
	c1, got1, reset1 := pair.snap(tc, n, seed, m)
	c1.EnableTrace()
	rng := xrand.New(xrand.Mix(seed, 0x5eed))
	randDrive(c1, rng, 2+int(seed%9), 1)
	snap := c1.Checkpoint()
	prefix := append(sched.Trace(nil), c1.Trace()...)
	wantHash := c1.StateHash()
	wantFP := c1.Fingerprint()
	randDrive(c1, xrand.New(xrand.Mix(seed, 0xd1f)), 1<<20, n-1) // run the divergent branch to completion
	c1.Restore(snap, reset1)

	if got := c1.StateHash(); got != wantHash {
		t.Fatalf("seed %#x: restore hash %x != checkpoint hash %x", seed, got, wantHash)
	}
	if c1.Fingerprint() != wantFP {
		t.Fatalf("seed %#x: restore fingerprint %#x != checkpoint %#x", seed, c1.Fingerprint(), wantFP)
	}

	// System 2: a fresh identical instance, prefix reconstructed by replay.
	c2, got2, _ := pair.replay(tc, n, seed, m)
	c2.EnableTrace()
	if err := c2.ApplyTrace(prefix); err != nil {
		t.Fatalf("seed %#x: replay: %v", seed, err)
	}
	if compareHash {
		if h := c2.StateHash(); h != wantHash {
			t.Fatalf("seed %#x: replayed engine hash %x != checkpoint hash %x", seed, h, wantHash)
		}
	}
	if c2.Fingerprint() != wantFP {
		t.Fatalf("seed %#x: replayed fingerprint %#x != %#x", seed, c2.Fingerprint(), wantFP)
	}
	// Observable reads: every process must have logged the identical word
	// sequence (Ref reads compare as Ref reads; their pointers are
	// per-instance).
	for pid := 0; pid < n; pid++ {
		p1, p2 := c1.Proc(pid), c2.Proc(pid)
		if p1.Steps() != p2.Steps() || p1.ReadLogLen() != p2.ReadLogLen() {
			t.Fatalf("seed %#x: proc %d position (%d steps, %d reads) != replay (%d, %d)",
				seed, pid, p1.Steps(), p1.ReadLogLen(), p2.Steps(), p2.ReadLogLen())
		}
		for i := 0; i < p1.ReadLogLen(); i++ {
			w1, ref1 := p1.ReadWord(i)
			w2, ref2 := p2.ReadWord(i)
			if ref1 != ref2 || (!ref1 && w1 != w2) {
				t.Fatalf("seed %#x: proc %d read %d: restored (%d,%v) != replayed (%d,%v)", seed, pid, i, w1, ref1, w2, ref2)
			}
		}
	}
	// Identical continuations from both reconstructions must produce
	// bit-identical executions: same grants accepted, same fingerprint, same
	// steps, same acquired names.
	finish := func(c sched.StateEngine) sched.Result {
		r := xrand.New(xrand.Mix(seed, 0xf1a1))
		randDrive(c, r, 1<<20, n-1)
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
}
