package explore

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// system is one instance of a test fixture in both engine forms: the
// goroutine body, its frame twin for the vectorized engine (which stateful
// strategies require), the copy of the vectorized engine's lane results into
// the fixture's outcome slots (nil when the outcome reads none), and the
// renderer of an execution's observable outcome.
type system struct {
	body    sched.Body
	frame   func(p *shmem.Proc) vexec.Frame
	collect func(e *vexec.Exec)
	fin     func(res sched.Result) string
}

// raceBody is a tiny nondeterministic protocol: each process writes its id
// into the shared register, reads it back, and returns what it saw. The
// final values depend on the interleaving, so the set of reachable outcome
// vectors is a faithful signature of schedule coverage. The body clears its
// own capture slot first, so a fixture reused across executions (as
// driveSharded's shards do) never leaks an earlier run's observation into a
// run where the process crashes before reading.
func raceBody(r *shmem.Reg, got []int64) sched.Body {
	return func(p *shmem.Proc) {
		got[p.ID()] = 0
		p.Write(r, int64(p.ID()+1))
		got[p.ID()] = p.Read(r)
	}
}

// writeReadFrame is raceBody's frame twin: p.Write(r, id+1), then return
// p.Read(r) as the lane's result.
type writeReadFrame struct {
	r  *shmem.Reg
	pc int
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
	return m.Return(p.Read(f.r), true)
}

func (f *writeReadFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *writeReadFrame) Load(src vexec.Frame)             { *f = *src.(*writeReadFrame) }

// outcome renders an execution's observable final state.
func outcome(got []int64, res sched.Result) string {
	s := ""
	for i, v := range got {
		crashed := res.Crashed[i]
		s += fmt.Sprintf("%d:%d:%v ", i, v, crashed)
	}
	return s
}

// bruteForce enumerates every complete crash-free schedule of mk's system by
// explicit tree walking (rebuild + replay per node) and returns the set of
// reachable outcomes. Exponential — callers keep the system tiny.
func bruteForce(t *testing.T, n int, mk func() system) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	var walk func(prefix sched.Trace)
	walk = func(prefix sched.Trace) {
		sys := mk()
		c := sched.NewController(n, nil, sys.body)
		if err := c.ApplyTrace(prefix); err != nil {
			c.Abort()
			t.Fatalf("brute-force replay: %v", err)
		}
		if c.PendingCount() == 0 {
			out[sys.fin(c.Result())] = true
			return
		}
		var pids []int
		for pid := sched.NextBit(c.Pending(), -1); pid >= 0; pid = sched.NextBit(c.Pending(), pid) {
			pids = append(pids, pid)
		}
		ev := make(sched.Trace, len(prefix), len(prefix)+1)
		copy(ev, prefix)
		for _, pid := range pids {
			in := c.Intent(pid)
			walk(append(ev, sched.TraceEvent{Pid: pid, Op: in.Kind, Reg: in.Reg}))
		}
		c.Abort()
	}
	walk(nil)
	return out
}

// driveTree runs a tree strategy over mk's system and returns the outcomes
// of its complete executions plus the final stats.
func driveTree(t *testing.T, s Strategy, n int, mk func() system) (map[string]bool, Stats) {
	t.Helper()
	return driveTreeModel(t, s, n, shmem.Model{}, mk)
}

// driveTreeModel is driveTree under a fault model. A stateful strategy
// searches one persistent fixture on its frame twin; the others rebuild the
// goroutine body per execution and so run on the oracle.
func driveTreeModel(t *testing.T, s Strategy, n int, m shmem.Model, mk func() system) (map[string]bool, Stats) {
	t.Helper()
	outcomes := make(map[string]bool)
	if _, stateful := s.(Stateful); stateful {
		sys := mk()
		st := Drive(s, Config{
			N:     n,
			Model: m,
			Frame: func(run int) func(p *shmem.Proc) vexec.Frame { return sys.frame },
			OnResult: func(run int, e sched.Engine, tr sched.Trace, res sched.Result) bool {
				if sys.collect != nil {
					sys.collect(e.(*vexec.Exec))
				}
				outcomes[sys.fin(res)] = true
				return true
			},
		})
		return outcomes, st
	}
	var fins []func(res sched.Result) string
	st := Drive(s, Config{
		N:     n,
		Model: m,
		Body: func(run int) sched.Body {
			sys := mk()
			for len(fins) <= run {
				fins = append(fins, nil)
			}
			fins[run] = sys.fin
			return sys.body
		},
		OnResult: func(run int, e sched.Engine, tr sched.Trace, res sched.Result) bool {
			outcomes[fins[run](res)] = true
			return true
		},
	})
	return outcomes, st
}

// raceSystem builds the shared fixture for n processes.
func raceSystem(n int) func() system {
	return func() system {
		var r shmem.Reg
		got := make([]int64, n)
		return system{
			body:  raceBody(&r, got),
			frame: func(p *shmem.Proc) vexec.Frame { return &writeReadFrame{r: &r} },
			collect: func(e *vexec.Exec) {
				for pid := range got {
					got[pid], _ = e.Returned(pid)
				}
			},
			fin: func(res sched.Result) string { return outcome(got, res) },
		}
	}
}

// TestSleepSetMatchesBruteForce is the soundness anchor: the sleep-set
// walker must reach every outcome the full schedule tree reaches, for n = 2
// and n = 3, while marking the search complete.
func TestSleepSetMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := bruteForce(t, n, raceSystem(n))
		got, st := driveTree(t, NewSleepSet(0, 0), n, raceSystem(n))
		if !st.Complete {
			t.Fatalf("n=%d: sleep-set walk did not exhaust the tree: %+v", n, st)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: sleep-set outcomes %d != brute force %d\n got %v\nwant %v", n, len(got), len(want), keys(got), keys(want))
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("n=%d: outcome %q reachable but never explored", n, o)
			}
		}
	}
}

// TestSleepSetPrunesCommutingGrants: processes touching disjoint registers
// commute everywhere, so the reduced tree is a single execution no matter
// the population.
func TestSleepSetPrunesCommutingGrants(t *testing.T) {
	const n = 4
	mk := func() system {
		regs := make([]shmem.Reg, n)
		return system{
			body: func(p *shmem.Proc) {
				p.Write(&regs[p.ID()], 1)
				p.Read(&regs[p.ID()])
			},
			fin: func(res sched.Result) string { return "done" },
		}
	}
	_, st := driveTree(t, NewSleepSet(0, 0), n, mk)
	if !st.Complete {
		t.Fatalf("walk incomplete: %+v", st)
	}
	if st.Executions != 1 {
		t.Fatalf("fully commuting system took %d executions, want 1 (stats %+v)", st.Executions, st)
	}
	if st.Pruned == 0 {
		t.Fatal("no pruning recorded on a fully commuting system")
	}
}

// TestSleepSetCrashBranching: with crash branching enabled, every crash
// pattern's observable outcome is reached — including each solo-survivor
// state — and the search still completes.
func TestSleepSetCrashBranching(t *testing.T) {
	const n = 2
	mk := raceSystem(n)
	got, st := driveTree(t, NewSleepSet(0, n), n, mk)
	if !st.Complete {
		t.Fatalf("crash-branching walk incomplete: %+v", st)
	}
	// Every survivor pattern — both live, only 0, only 1, none — must appear
	// among the outcomes (crash flags are part of the outcome string).
	masks := map[string]bool{}
	for o := range got {
		mask := ""
		for pid := 0; pid < n; pid++ {
			if contains(o, fmt.Sprintf("%d:0:true", pid)) || contains(o, fmt.Sprintf("%d:1:true", pid)) || contains(o, fmt.Sprintf("%d:2:true", pid)) {
				mask += "x"
			} else {
				mask += "."
			}
		}
		masks[mask] = true
	}
	for _, want := range []string{"..", "x.", ".x", "xx"} {
		if !masks[want] {
			t.Fatalf("survivor pattern %q never reached; outcomes: %v", want, keys(got))
		}
	}
}

// TestTreeBudgetStops: a budget caps executions without claiming
// completeness.
func TestTreeBudgetStops(t *testing.T) {
	_, st := driveTree(t, NewSleepSet(2, 0), 3, raceSystem(3))
	if st.Executions+st.Partial > 2 {
		t.Fatalf("budget 2 exceeded: %+v", st)
	}
	if st.Complete {
		t.Fatal("budgeted search claimed completeness")
	}
}

// TestTreeDeterminism: two identical searches take identical stats.
func TestTreeDeterminism(t *testing.T) {
	_, a := driveTree(t, NewSleepSet(0, 2), 2, raceSystem(2))
	_, b := driveTree(t, NewSleepSet(0, 2), 2, raceSystem(2))
	if a != b {
		t.Fatalf("sleep-set search not deterministic: %+v vs %+v", a, b)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
