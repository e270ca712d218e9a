package model_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// TestRestoreEquivalentToReplay is the checkpoint/restore ground truth for
// the real algorithms: over randomized traces of all of them, restoring a
// mid-execution vexec snapshot must land where a fresh engine lands by
// replay of the same prefix — same fingerprint, grants, trace, pending set
// and intent kinds, stale choices, and per-lane steps, restarts, phase and
// outcome — and identical continuations from both must be bit-identical
// (same schedule fingerprint, steps, and acquired names).
//
// The replay side runs on a fresh vexec engine (pair "vexec") and on the
// goroutine oracle (pair "vexec-to-goroutine"), which is exactly the
// reconstruction contract engine-mixed tooling relies on (a vexec-discovered
// violation replayed on a goroutine controller).
func TestRestoreEquivalentToReplay(t *testing.T) {
	for _, tc := range conformance.Cases() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, pair := range enginePairs() {
				pair := pair
				t.Run(pair.name, func(t *testing.T) {
					for trial := 0; trial < 4; trial++ {
						seed := uint64(trial+1) * 0x9e3779b9
						runRestoreEquivalence(t, tc, 3, seed, pair)
					}
				})
			}
		})
	}
}

// enginePair names the replay side of one equivalence run: the engine that
// reconstructs the prefix from the trace. The snapshot side, which
// checkpoints and restores, is always vexec (mkVexec).
type enginePair struct {
	name   string
	replay func(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.SearchEngine, []int64)
}

// mkGoroutine builds the oracle over a fresh instance of the case.
func mkGoroutine(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.SearchEngine, []int64) {
	r := tc.New(n, seed)
	got := make([]int64, n)
	c := sched.NewController(n, tc.Origs(n, seed), func(p *shmem.Proc) {
		if name, ok := r.Rename(p, p.Name()); ok {
			got[p.ID()] = name
		}
	})
	if !m.Atomic() {
		c.SetModel(m)
	}
	return c, got
}

func mkVexec(tc conformance.Case, n int, seed uint64, m shmem.Model) (*vexec.Exec, []int64, func(pid int)) {
	fr := tc.New(n, seed).(vexec.FrameRenamer)
	got := make([]int64, n)
	oks := make([]bool, n)
	e := vexec.New(n, tc.Origs(n, seed), func(p *shmem.Proc) vexec.Frame {
		return vexec.Capture(fr.FrameRename(p.Name(), nil), &got[p.ID()], &oks[p.ID()], nil)
	})
	if !m.Atomic() {
		e.SetModel(m)
	}
	e.EnableState()
	// Capture writes a lane's outcome only at completion, so stale outcomes
	// from an abandoned branch must be cleared for every lane the restore
	// puts back — the same per-lane Config.Reset contract the search drivers
	// use.
	return e, got, func(pid int) { got[pid], oks[pid] = 0, false }
}

// enginePairs returns the replay sides to certify.
func enginePairs() []enginePair {
	return []enginePair{
		{name: "vexec", replay: func(tc conformance.Case, n int, seed uint64, m shmem.Model) (sched.SearchEngine, []int64) {
			e, got, _ := mkVexec(tc, n, seed, m)
			return e, got
		}},
		{name: "vexec-to-goroutine", replay: mkGoroutine},
	}
}

// randDrive drives k random decisions (with an occasional crash) and leaves
// the engine at a decision point. It mirrors the adversary's full power:
// the prefix is an arbitrary schedule-and-crash pattern.
func randDrive(c sched.Engine, rng *xrand.Rand, k int, maxCrashes int) {
	crashes := 0
	for i := 0; i < k && c.PendingCount() > 0; i++ {
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
		c.Step(pid)
	}
}

// lanePoint is one process's observable state at a decision point.
type lanePoint struct {
	steps         int64
	restarts      int
	done, crashed bool
	got           int64
	kind          shmem.OpKind // the posted intent's kind; zero unless pending
	stale         []int64      // StaleVals of the pending read
}

// point is an engine's observable state at a decision point, in terms both
// engines share. Register identities are per instance, so the trace is
// compared by its rendering, which leaves them out.
type point struct {
	fp       uint64
	grants   int64
	restarts int
	trace    string
	pending  []int
	lanes    []lanePoint
}

func observe(c sched.SearchEngine, got []int64) point {
	pt := point{fp: c.Fingerprint(), grants: c.Grants(), restarts: c.Restarts(), trace: c.Trace().String(), pending: sched.Pending(c, nil)}
	for pid := 0; pid < c.N(); pid++ {
		p := c.Proc(pid)
		lp := lanePoint{steps: p.Steps(), restarts: p.Restarts(), done: c.Done(pid), crashed: c.Crashed(pid), got: got[pid]}
		if slices.Contains(pt.pending, pid) {
			lp.kind = c.Intent(pid).Kind
			lp.stale = c.StaleVals(pid, nil)
		}
		pt.lanes = append(pt.lanes, lp)
	}
	return pt
}

// checkRestoreEquivalence compares restored engine c1 with c2, which
// replayed the same prefix, then drives both through the continuation
// finish and requires bit-identical executions: same grants accepted, same
// fingerprint, same steps, same acquired names.
func checkRestoreEquivalence(t *testing.T, seed uint64, n int, c1 *vexec.Exec, got1 []int64, c2 sched.SearchEngine, got2 []int64, finish func(c sched.Engine)) {
	t.Helper()
	if p1, p2 := observe(c1, got1), observe(c2, got2); !reflect.DeepEqual(p1, p2) {
		t.Fatalf("seed %#x: restored\n%+v\nreplayed\n%+v", seed, p1, p2)
	}
	finish(c1)
	finish(c2)
	res1, res2 := c1.Result(), c2.Result()
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

func runRestoreEquivalence(t *testing.T, tc conformance.Case, n int, seed uint64, pair enginePair) {
	t.Helper()
	var m shmem.Model // the paper's: atomic registers, fail-stop

	// System 1: random prefix, checkpoint, divergent continuation, restore.
	c1, got1, reset1 := mkVexec(tc, n, seed, m)
	c1.EnableTrace()
	rng := xrand.New(xrand.Mix(seed, 0x5eed))
	randDrive(c1, rng, 2+int(seed%9), 1)
	snap := c1.Checkpoint()
	prefix := append(sched.Trace(nil), c1.Trace()...)
	randDrive(c1, xrand.New(xrand.Mix(seed, 0xd1f)), 1<<20, n-1) // run the divergent branch to completion
	c1.Restore(snap, reset1)

	// System 2: a fresh identical instance, prefix reconstructed by replay.
	c2, got2 := pair.replay(tc, n, seed, m)
	c2.EnableTrace()
	if err := c2.ApplyTrace(prefix); err != nil {
		t.Fatalf("seed %#x: replay: %v", seed, err)
	}
	checkRestoreEquivalence(t, seed, n, c1, got1, c2, got2, func(c sched.Engine) {
		randDrive(c, xrand.New(xrand.Mix(seed, 0xf1a1)), 1<<20, n-1)
	})
}
