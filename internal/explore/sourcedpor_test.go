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
		got, st := driveTree(t, NewSourceDPOR(0, 0), n, raceSystem(n))
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

// TestSourceDPORNoDedupMatchesBruteForce: the engine keeps no table of
// visited states, so on the converging fixture, whose interleavings reach
// identical states, every revisit is walked again and the walk still reaches
// every outcome of the full schedule tree.
func TestSourceDPORNoDedupMatchesBruteForce(t *testing.T) {
	for _, rounds := range []int{2, 3} {
		const n = 3
		want := bruteForce(t, n, convergeSystem(n, rounds))
		got, st := driveTree(t, NewSourceDPOR(0, 0), n, convergeSystem(n, rounds))
		if !st.Complete {
			t.Fatalf("rounds=%d: search incomplete: %+v", rounds, st)
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("rounds=%d: outcome %q reachable but never explored", rounds, o)
			}
		}
	}
}

// TestSourceDPORCrashBranching: with crash branching the engine reaches
// every survivor pattern, like the exhaustive sleep-set walker.
func TestSourceDPORCrashBranching(t *testing.T) {
	const n = 2
	got, st := driveTree(t, NewSourceDPOR(0, n), n, raceSystem(n))
	if !st.Complete {
		t.Fatalf("crash-branching walk incomplete: %+v", st)
	}
	want, _ := driveTree(t, NewSleepSet(0, n), n, raceSystem(n))
	for o := range want {
		if !got[o] {
			t.Fatalf("outcome %q reached by sleep-set crash walk but not source-DPOR", o)
		}
	}
}

// TestSourceDPORNotWeakerThanDPOR: on the contended fixture the source-set
// engine must explore no more decisions than the unreduced stateless
// sleep-set walk at full coverage — the reduction source sets claim — and
// restore instead of replay.
func TestSourceDPORNotWeakerThanDPOR(t *testing.T) {
	for _, n := range []int{3, 4} {
		_, old := driveTree(t, NewSleepSet(0, 0), n, raceSystem(n))
		_, src := driveTree(t, NewSourceDPOR(0, 0), n, raceSystem(n))
		if !old.Complete || !src.Complete {
			t.Fatalf("n=%d: incomplete walks: sleepset %+v, sourcedpor %+v", n, old, src)
		}
		if src.Explored > old.Explored {
			t.Fatalf("n=%d: source-DPOR explored %d decisions, stateless sleep-set %d — source sets must not be weaker",
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
// k grants the state is the same no matter who moved: partial-order
// reasoning cannot merge those states, so the walk revisits them.
func convergeSystem(n, rounds int) func() system {
	return func() system {
		var r shmem.Reg
		return system{
			body: func(p *shmem.Proc) {
				for i := 0; i < rounds; i++ {
					p.Write(&r, 7)
				}
			},
			frame: func(p *shmem.Proc) vexec.Frame { return &blindWritesFrame{r: &r, left: rounds} },
			fin:   func(res sched.Result) string { return "done" },
		}
	}
}

// blindWritesFrame is convergeSystem's frame twin: left writes of 7 to r.
type blindWritesFrame struct {
	r     *shmem.Reg
	left  int
	armed bool
}

func (f *blindWritesFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.armed {
		p.Write(f.r, 7)
		f.left--
	}
	if f.left == 0 {
		return vexec.Done
	}
	f.armed = true
	return m.Intend(shmem.OpWrite, f.r)
}

func (f *blindWritesFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *blindWritesFrame) Load(src vexec.Frame)             { *f = *src.(*blindWritesFrame) }

// TestSourceDPORBudgetStops: a budget caps executions without claiming
// completeness.
func TestSourceDPORBudgetStops(t *testing.T) {
	_, st := driveTree(t, NewSourceDPOR(2, 0), 3, raceSystem(3))
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
	_, a := driveTree(t, NewSourceDPOR(0, 1), 3, raceSystem(3))
	_, b := driveTree(t, NewSourceDPOR(0, 1), 3, raceSystem(3))
	a.RaceNs, b.RaceNs = 0, 0
	if a != b {
		t.Fatalf("source-DPOR search not deterministic: %+v vs %+v", a, b)
	}
}

// loadWatchFrame is writeReadFrame counting its Runs, with onLoad called
// before each Load with the run counts of the frame and of the saved copy.
type loadWatchFrame struct {
	writeReadFrame
	runs   int
	onLoad func(pid, runs, savedRuns int)
	pid    int
}

func (f *loadWatchFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	f.runs++
	return f.writeReadFrame.Run(m, p)
}

func (f *loadWatchFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *loadWatchFrame) Load(src vexec.Frame) {
	s := src.(*loadWatchFrame)
	f.onLoad(f.pid, f.runs, s.runs)
	*f = *s
}

// TestSourceDPORStatefulReset: a restore builds no frame — the root builder
// runs only for the n initial spawns — and calls Reset(pid) only for lanes
// that moved since the capture, each right before it loads the lane's saved
// frames, so body-external capture never leaks across branches, while
// unmoved lanes keep their captured outcome.
func TestSourceDPORStatefulReset(t *testing.T) {
	const n = 3
	got := make([]int64, n)
	var r shmem.Reg
	roots := make([]int, n)  // root frames built, by pid
	resets := make([]int, n) // Reset calls, by pid
	armed := make([]bool, n) // Reset(pid) called, load not yet seen
	onLoad := func(pid, runs, savedRuns int) {
		if !armed[pid] {
			t.Fatalf("lane %d loaded without a Reset", pid)
		}
		if runs <= savedRuns {
			t.Fatalf("lane %d reset and loaded though it did not move (%d runs, %d at capture)", pid, runs, savedRuns)
		}
		armed[pid] = false
	}
	st := Drive(NewSourceDPOR(0, 0), Config{
		N: n,
		Frame: func(run int) func(p *shmem.Proc) vexec.Frame {
			return func(p *shmem.Proc) vexec.Frame {
				pid := p.ID()
				roots[pid]++
				return &loadWatchFrame{writeReadFrame: writeReadFrame{r: &r, got: &got[pid]}, onLoad: onLoad, pid: pid}
			}
		},
		Reset: func(pid int) {
			if armed[pid] {
				t.Fatalf("Reset(%d) twice without a load", pid)
			}
			armed[pid] = true
			resets[pid]++
			got[pid] = 0
		},
		OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
			for pid := 0; pid < n; pid++ {
				if got[pid] < 1 || got[pid] > n {
					t.Fatalf("run %d: stale capture got[%d]=%d", run, pid, got[pid])
				}
			}
			return true
		},
	})
	if !st.Complete {
		t.Fatalf("walk incomplete: %+v", st)
	}
	total := 0
	for pid := 0; pid < n; pid++ {
		if armed[pid] {
			t.Fatalf("Reset(%d) without a load", pid)
		}
		if roots[pid] != 1 {
			t.Fatalf("root builder ran %d times for process %d, want only its initial spawn", roots[pid], pid)
		}
		total += resets[pid]
	}
	if total == 0 || total >= n*st.Restored {
		t.Fatalf("%d resets for %d restores of %d lanes: want some lanes reset and the unmoved ones left alone", total, st.Restored, n)
	}
}

// TestStatefulNeedsFrame: a stateful strategy over a frameless config fails
// with one line that names the fix.
func TestStatefulNeedsFrame(t *testing.T) {
	defer func() {
		want := "explore: stateful strategy *explore.SourceDPOR needs Config.Frame (checkpoint/restore runs on vexec); supply Frame or use a stateless strategy such as SleepSet"
		if got := recover(); got != want {
			t.Fatalf("panic %q, want %q", got, want)
		}
	}()
	Drive(NewSourceDPOR(0, 0), Config{N: 2, Body: func(int) sched.Body { return raceSystem(2)().body }})
}
