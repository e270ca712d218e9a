package explore

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// TestSourceDPORMatchesBruteForce is the soundness anchor: the stateful
// source-set engine must reach every final-state outcome the full schedule
// tree reaches, while marking the search complete.
func TestSourceDPORMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := bruteForce(t, n, raceSystem(n))
		got, st := driveTree(t, NewSourceDPOR(1, 0, 0), n, raceSystem(n))
		if !st.Complete {
			t.Fatalf("n=%d: source-DPOR did not exhaust its reduced tree: %+v", n, st)
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("n=%d: outcome %q reachable but never explored by source-DPOR", n, o)
			}
		}
		if st.Replayed != 0 {
			t.Fatalf("n=%d: stateful search replayed %d grants; restore must replace replay entirely", n, st.Replayed)
		}
	}
}

// TestSourceDPORNoDedupMatchesBruteForce: the pure source-set engine
// (dedup off) is sound on its own.
func TestSourceDPORNoDedupMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := bruteForce(t, n, raceSystem(n))
		got, st := driveTree(t, NewSourceDPOR(1, 0, 0).DisableDedup(), n, raceSystem(n))
		if !st.Complete {
			t.Fatalf("n=%d: search incomplete: %+v", n, st)
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("n=%d: outcome %q reachable but never explored", n, o)
			}
		}
	}
}

// TestSourceDPORCrashBranching: with crash branching the engine reaches
// every survivor pattern, like the exhaustive sleep-set walker.
func TestSourceDPORCrashBranching(t *testing.T) {
	const n = 2
	got, st := driveTree(t, NewSourceDPOR(1, 0, n), n, raceSystem(n))
	if !st.Complete {
		t.Fatalf("crash-branching walk incomplete: %+v", st)
	}
	want, _ := driveTree(t, NewSleepSet(1, 0, n), n, raceSystem(n))
	for o := range want {
		if !got[o] {
			t.Fatalf("outcome %q reached by sleep-set crash walk but not source-DPOR", o)
		}
	}
}

// TestSourceDPORNotWeakerThanDPOR: on the contended fixture the source-set
// engine must explore no more decisions than the PR-3 all-pairs engine at
// full coverage — the reduction the refactor claims — and restore instead of
// replay.
func TestSourceDPORNotWeakerThanDPOR(t *testing.T) {
	for _, n := range []int{3, 4} {
		_, old := driveTree(t, NewDPOR(1, 0), n, raceSystem(n))
		_, src := driveTree(t, NewSourceDPOR(1, 0, 0), n, raceSystem(n))
		if !old.Complete || !src.Complete {
			t.Fatalf("n=%d: incomplete walks: dpor %+v, sourcedpor %+v", n, old, src)
		}
		if src.Explored > old.Explored {
			t.Fatalf("n=%d: source-DPOR explored %d decisions, stateless DPOR %d — source sets must not be weaker",
				n, src.Explored, old.Explored)
		}
		if src.Replayed != 0 || old.Replayed == 0 {
			t.Fatalf("n=%d: replay accounting inverted: source %d, stateless %d", n, src.Replayed, old.Replayed)
		}
		if src.Restored == 0 {
			t.Fatalf("n=%d: no restores recorded on a branching tree: %+v", n, src)
		}
	}
}

// convergeSystem builds a fixture whose interleavings converge to identical
// states: every process blind-writes the same value to the same register
// several times. All writes conflict (no commuting to prune), but after any
// k grants the state is the same no matter who moved — exactly what
// state-hash dedup collapses and pure partial-order reasoning cannot.
func convergeSystem(n, rounds int) func() (sched.Body, func(res sched.Result) string) {
	return func() (sched.Body, func(res sched.Result) string) {
		var r shmem.Reg
		body := func(p *shmem.Proc) {
			for i := 0; i < rounds; i++ {
				p.Write(&r, 7)
			}
		}
		return body, func(res sched.Result) string { return "done" }
	}
}

// TestSourceDPORDedupCollapsesConvergingStates: on the converging fixture
// the dedup'd search must cut revisited states and finish strictly smaller
// than the dedup-free search, with identical (complete) coverage.
func TestSourceDPORDedupCollapsesConvergingStates(t *testing.T) {
	const n, rounds = 3, 3
	_, plain := driveTree(t, NewSourceDPOR(1, 0, 0).DisableDedup(), n, convergeSystem(n, rounds))
	_, dedup := driveTree(t, NewSourceDPOR(1, 0, 0), n, convergeSystem(n, rounds))
	if !plain.Complete || !dedup.Complete {
		t.Fatalf("incomplete walks: plain %+v, dedup %+v", plain, dedup)
	}
	if dedup.Deduped == 0 {
		t.Fatalf("no states deduped on a converging system: %+v", dedup)
	}
	if dedup.Explored >= plain.Explored {
		t.Fatalf("dedup did not shrink the walk: %d explored with dedup, %d without", dedup.Explored, plain.Explored)
	}
}

// TestSourceDPORBudgetStops: a budget caps executions without claiming
// completeness.
func TestSourceDPORBudgetStops(t *testing.T) {
	_, st := driveTree(t, NewSourceDPOR(1, 2, 0), 3, raceSystem(3))
	if st.Executions+st.Partial > 2 {
		t.Fatalf("budget 2 exceeded: %+v", st)
	}
	if st.Complete {
		t.Fatal("budgeted search claimed completeness")
	}
}

// TestSourceDPORDeterminism: two identical searches take identical stats
// (RaceNs is wall-clock and excluded).
func TestSourceDPORDeterminism(t *testing.T) {
	_, a := driveTree(t, NewSourceDPOR(7, 0, 1), 3, raceSystem(3))
	_, b := driveTree(t, NewSourceDPOR(7, 0, 1), 3, raceSystem(3))
	a.RaceNs, b.RaceNs = 0, 0
	if a != b {
		t.Fatalf("source-DPOR search not deterministic: %+v vs %+v", a, b)
	}
}

// TestSourceDPORStatefulReset: a restore must call Reset(pid) before it
// re-roots process pid, and only then, so body-external capture never leaks
// across branches — while the vectorized engine's unmoved lanes, which are
// not re-rooted, keep their captured outcome. Both engines are driven: the
// goroutine engine re-roots every process on every restore, the vectorized
// engine only the lanes that moved since the capture.
func TestSourceDPORStatefulReset(t *testing.T) {
	const n = 3
	for _, onVexec := range []bool{false, true} {
		got := make([]int64, n)
		var r shmem.Reg
		roots := make([]int, n)  // body starts / root frames built, by pid
		resets := make([]int, n) // Reset calls, by pid
		armed := make([]bool, n) // Reset(pid) called, re-root not yet seen
		root := func(pid int) {
			if roots[pid] > 0 {
				if !armed[pid] {
					t.Fatalf("vexec=%v: process %d re-rooted without a Reset", onVexec, pid)
				}
				armed[pid] = false
			}
			roots[pid]++
		}
		cfg := Config{
			N: n,
			Body: func(run int) sched.Body {
				return func(p *shmem.Proc) {
					root(p.ID())
					p.Write(&r, int64(p.ID()+1))
					got[p.ID()] = p.Read(&r)
				}
			},
			Reset: func(pid int) {
				if armed[pid] {
					t.Fatalf("vexec=%v: Reset(%d) twice without a re-root", onVexec, pid)
				}
				armed[pid] = true
				resets[pid]++
				got[pid] = 0
			},
			OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
				for pid := 0; pid < n; pid++ {
					if got[pid] < 1 || got[pid] > n {
						t.Fatalf("vexec=%v run %d: stale capture got[%d]=%d", onVexec, run, pid, got[pid])
					}
				}
				return true
			},
		}
		if onVexec {
			cfg.Frame = func(run int) func(p *shmem.Proc) vexec.Frame {
				return func(p *shmem.Proc) vexec.Frame {
					root(p.ID())
					return &writeReadFrame{r: &r, got: &got[p.ID()]}
				}
			}
		}
		st := Drive(NewSourceDPOR(1, 0, 0), cfg)
		if !st.Complete {
			t.Fatalf("vexec=%v: walk incomplete: %+v", onVexec, st)
		}
		total := 0
		for pid := 0; pid < n; pid++ {
			if armed[pid] {
				t.Fatalf("vexec=%v: Reset(%d) without a re-root", onVexec, pid)
			}
			if roots[pid]-1 != resets[pid] {
				t.Fatalf("vexec=%v: process %d re-rooted %d times, reset %d times", onVexec, pid, roots[pid]-1, resets[pid])
			}
			total += resets[pid]
		}
		if !onVexec && total != n*st.Restored {
			t.Fatalf("goroutine engine: %d resets for %d restores of %d processes", total, st.Restored, n)
		}
		if onVexec && total >= n*st.Restored {
			t.Fatalf("vexec: %d resets for %d restores of %d lanes: no unmoved lane was left alone", total, st.Restored, n)
		}
	}
}

// writeReadFrame is the frame compilation of the body
// p.Write(r, id+1); *got = p.Read(r).
type writeReadFrame struct {
	r   *shmem.Reg
	got *int64
	pc  int
}

func (f *writeReadFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.Intend(shmem.OpWrite, f.r)
	case 1:
		p.Write(f.r, int64(p.ID()+1))
		f.pc = 2
		return m.Intend(shmem.OpRead, f.r)
	}
	*f.got = p.Read(f.r)
	return vexec.Done
}
