package model

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// brokenRenamer plants the classic unconfirmed-claim exclusiveness bug: it
// takes the first slot it reads as null without re-reading, so two processes
// whose null-reads interleave both adopt the slot. Safe solo; broken under
// contention — exactly what an exhaustive checker must catch at n=2.
type brokenRenamer struct {
	slots []shmem.Reg
}

func (b *brokenRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for i := range b.slots {
		if p.Read(&b.slots[i]) == shmem.Null {
			p.Write(&b.slots[i], orig)
			return int64(i + 1), true
		}
	}
	return 0, false
}

func (b *brokenRenamer) MaxName() int64 { return int64(len(b.slots)) }
func (b *brokenRenamer) Registers() int { return len(b.slots) }

// brokenFrame is brokenRenamer's frame twin: the same slot scan, access for
// access.
type brokenFrame struct {
	b     *brokenRenamer
	orig  int64
	i     int
	phase int // 0: post slot i's read; 1: perform it; 2: perform the claiming write
}

func (b *brokenRenamer) FrameRename(orig int64, _ vexec.Frame) vexec.Frame {
	return &brokenFrame{b: b, orig: orig}
}

func (f *brokenFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.phase {
	case 1:
		if p.Read(&f.b.slots[f.i]) == shmem.Null {
			f.phase = 2
			return m.Intend(shmem.OpWrite, &f.b.slots[f.i])
		}
		f.i++
	case 2:
		p.Write(&f.b.slots[f.i], f.orig)
		return m.Return(int64(f.i+1), true)
	}
	if f.i == len(f.b.slots) {
		return m.Return(0, false)
	}
	f.phase = 1
	return m.Intend(shmem.OpRead, &f.b.slots[f.i])
}

func (f *brokenFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *brokenFrame) Load(src vexec.Frame)             { *f = *src.(*brokenFrame) }

// fairRenamer is the correct contrast: slot i belongs to pid i.
type fairRenamer struct {
	slots []shmem.Reg
}

func (f *fairRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	p.Write(&f.slots[p.ID()], orig)
	return int64(p.ID() + 1), true
}

func (f *fairRenamer) MaxName() int64 { return int64(len(f.slots)) }
func (f *fairRenamer) Registers() int { return len(f.slots) }

// fairFrame is fairRenamer's frame twin.
type fairFrame struct {
	f     *fairRenamer
	orig  int64
	armed bool
}

func (f *fairRenamer) FrameRename(orig int64, _ vexec.Frame) vexec.Frame {
	return &fairFrame{f: f, orig: orig}
}

func (f *fairFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.armed {
		p.Write(&f.f.slots[p.ID()], f.orig)
		return m.Return(int64(p.ID()+1), true)
	}
	f.armed = true
	return m.Intend(shmem.OpWrite, &f.f.slots[p.ID()])
}

func (f *fairFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *fairFrame) Load(src vexec.Frame)             { *f = *src.(*fairFrame) }

// TestCheckFindsPlantedBugExhaustively: the model checker must find the
// unconfirmed-claim bug at n=2 without any seed luck — it is in the tree,
// so it is found, with the violating schedule attached.
func TestCheckFindsPlantedBug(t *testing.T) {
	const n = 2
	rep := Check("broken", func() check.Renamer { return &brokenRenamer{slots: make([]shmem.Reg, n)} },
		n, nil, check.Suite{check.Exclusive(), check.Returned()}, Options{})
	if rep.Violation == nil {
		t.Fatalf("exhaustive checker missed the planted bug: %s", rep.Summary())
	}
	if !strings.Contains(rep.Violation.Err.Error(), "exclusive") {
		t.Fatalf("violation is not the exclusiveness bug: %v", rep.Violation.Err)
	}
	if len(rep.Violation.Trace) == 0 {
		t.Fatal("violation carries no schedule")
	}
	if rep.Proven() {
		t.Fatal("a violated run claims proof")
	}
	if !strings.Contains(rep.Summary(), "VIOLATED") {
		t.Fatalf("summary does not report the violation: %s", rep.Summary())
	}
}

// TestCheckProvesFairRenamer: the correct fixture is proven at n = 2 and 3,
// with and without crash branching.
func TestCheckProvesFairRenamer(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, crashes := range []int{0, n - 1} {
			nn := n
			rep := Check("fair", func() check.Renamer { return &fairRenamer{slots: make([]shmem.Reg, nn)} },
				nn, nil, check.Basic(), Options{MaxCrashes: crashes})
			if !rep.Proven() {
				t.Fatalf("n=%d crashes=%d: not proven: %s", n, crashes, rep.Summary())
			}
			if rep.Executions < 1 || rep.Explored < 1 {
				t.Fatalf("n=%d: empty search: %+v", n, rep)
			}
			if !strings.Contains(rep.Summary(), "PROVEN") {
				t.Fatalf("summary does not report the proof: %s", rep.Summary())
			}
		}
	}
}

// TestCheckCrashBranchingIsLarger: enabling crash branching strictly grows
// the tree (more executions) and still completes.
func TestCheckCrashBranchingIsLarger(t *testing.T) {
	const n = 2
	mk := func() check.Renamer { return &fairRenamer{slots: make([]shmem.Reg, n)} }
	plain := Check("fair", mk, n, nil, check.Basic(), Options{})
	crashy := Check("fair", mk, n, nil, check.Basic(), Options{MaxCrashes: n - 1})
	if !plain.Complete || !crashy.Complete {
		t.Fatalf("walks incomplete: %+v / %+v", plain, crashy)
	}
	if crashy.Executions <= plain.Executions {
		t.Fatalf("crash branching did not grow the tree: %d vs %d executions", crashy.Executions, plain.Executions)
	}
}

// TestEnginesAgree: the stateful source-DPOR engine and the stateless
// hash-free sleep-set engine must agree on verdicts — both find the planted
// bug, both prove the correct fixture — across crash settings. This is the
// cross-check that keeps the hashed engine honest.
func TestEnginesAgree(t *testing.T) {
	const n = 3
	for _, crashes := range []int{0, n - 1} {
		for _, walker := range []Walker{WalkerSourceDPOR, WalkerSleepSet} {
			opt := Options{Walker: walker, MaxCrashes: crashes}
			bad := Check("broken", func() check.Renamer { return &brokenRenamer{slots: make([]shmem.Reg, n)} },
				n, nil, check.Suite{check.Exclusive(), check.Returned()}, opt)
			if bad.Violation == nil {
				t.Fatalf("%s crashes=%d missed the planted bug: %s", walker, crashes, bad.Summary())
			}
			good := Check("fair", func() check.Renamer { return &fairRenamer{slots: make([]shmem.Reg, n)} },
				n, nil, check.Basic(), opt)
			if !good.Proven() {
				t.Fatalf("%s crashes=%d failed to prove the fair fixture: %s", walker, crashes, good.Summary())
			}
		}
	}
}

// TestCheckBudgetDegradesToSample: a budget too small for the tree must
// report Complete=false — never a false proof.
func TestCheckBudgetDegradesToSample(t *testing.T) {
	const n = 3
	rep := Check("broken", func() check.Renamer { return &brokenRenamer{slots: make([]shmem.Reg, n)} },
		n, nil, check.Suite{check.Returned()}, Options{Budget: 2})
	if rep.Complete {
		t.Fatalf("budget 2 cannot exhaust an n=3 tree, yet Complete: %s", rep.Summary())
	}
	if rep.Proven() {
		t.Fatal("budgeted sample claims proof")
	}
	if !strings.Contains(rep.Summary(), "SAMPLED") {
		t.Fatalf("summary does not report the degradation: %s", rep.Summary())
	}
}

// TestSourceDPORFramelessWalksSleepSet: source-DPOR runs on vexec only, so
// a renamer without frame automata is walked by the sleep-set walker on the
// goroutine oracle, and the report names the walker that ran.
func TestSourceDPORFramelessWalksSleepSet(t *testing.T) {
	rep := Check("hidden", func() check.Renamer { return struct{ check.Renamer }{&fairRenamer{slots: make([]shmem.Reg, 2)}} },
		2, nil, check.Basic(), Options{})
	if rep.Walker != WalkerSleepSet || rep.Engine != EngineGoroutine || !rep.Proven() {
		t.Fatalf("frameless default walk: %s, want a sleep-set proof on the goroutine oracle", rep.Summary())
	}
}
