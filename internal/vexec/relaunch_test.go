package vexec_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// spawnLog is the one-lane session source of the relaunch tests: every spawn
// of the lane (construction, Relaunch, Restart) begins session k+1, which
// writes 10*(k+1) to reg and finishes.
type spawnLog struct {
	reg shmem.Reg
	k   int64
}

// writeFrame posts one write of val to reg, performs it, and finishes.
type writeFrame struct {
	reg *shmem.Reg
	val int64
	pc  uint8
}

func (f *writeFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.pc == 0 {
		f.pc = 1
		return m.Intend(shmem.OpWrite, f.reg)
	}
	p.Write(f.reg, f.val)
	return m.Return(f.val, true)
}

// relaunchEngines builds a one-lane engine of each kind over a spawnLog. ret
// reads lane 0's root-frame result where the engine keeps one (vexec only),
// so the vexec rows also check that Relaunch resets it per session.
var relaunchEngines = []struct {
	name string
	new  func(s *spawnLog) sched.SearchEngine
	ret  func(e sched.SearchEngine) (int64, bool)
}{
	{"goroutine", func(s *spawnLog) sched.SearchEngine {
		return sched.NewController(1, nil, func(p *shmem.Proc) {
			s.k++
			p.Write(&s.reg, 10*s.k)
		})
	}, nil},
	{"vexec", func(s *spawnLog) sched.SearchEngine {
		fr := &writeFrame{}
		return vexec.New(1, nil, func(p *shmem.Proc) vexec.Frame {
			s.k++
			*fr = writeFrame{reg: &s.reg, val: 10 * s.k} // re-armed in place
			return fr
		})
	}, func(e sched.SearchEngine) (int64, bool) { return e.(*vexec.Exec).Returned(0) }},
}

// TestRelaunchRecyclesLane drives one lane through three consecutive
// sessions on either engine: Relaunch re-runs the engine's one root as a
// fresh logical process, steps accumulate on the Proc, each session's result
// is observable at its completion (vexec), and the relaunch
// itself is no decision: it leaves the grant count, trace and fingerprint
// alone.
func TestRelaunchRecyclesLane(t *testing.T) {
	for _, eng := range relaunchEngines {
		t.Run(eng.name, func(t *testing.T) {
			s := &spawnLog{}
			e := eng.new(s)
			e.EnableTrace()
			fp := uint64(0)
			for k := int64(1); k <= 3; k++ {
				if e.PendingCount() != 1 {
					t.Fatalf("session %d: lane not pending", k)
				}
				e.Step(0)
				fp = sched.FoldGrant(fp, 0, shmem.OpWrite, false, 0, false)
				if !e.Done(0) {
					t.Fatalf("session %d: lane not done after its single write", k)
				}
				if got := s.reg.Peek(); got != 10*k {
					t.Fatalf("session %d: register holds %d, want %d", k, got, 10*k)
				}
				if eng.ret != nil {
					if got, ok := eng.ret(e); !ok || got != 10*k {
						t.Fatalf("session %d: returned (%d, %v), want (%d, true)", k, got, ok, 10*k)
					}
				}
				if steps := e.Proc(0).Steps(); steps != k {
					t.Fatalf("session %d: cumulative steps %d, want %d", k, steps, k)
				}
				if k < 3 {
					e.Relaunch(0)
				}
			}
			if e.Grants() != 3 || len(e.Trace()) != 3 || e.Fingerprint() != fp {
				t.Fatalf("relaunches recorded as decisions: grants %d, trace %d events, fingerprint %#x (want 3, 3, %#x)",
					e.Grants(), len(e.Trace()), e.Fingerprint(), fp)
			}
		})
	}
}

// TestRelaunchAfterCrash re-roots a crashed lane as a fresh logical process
// on either engine: the crashed session's posted write stays discarded, and
// the next session runs normally on the same lane.
func TestRelaunchAfterCrash(t *testing.T) {
	for _, eng := range relaunchEngines {
		t.Run(eng.name, func(t *testing.T) {
			s := &spawnLog{}
			e := eng.new(s)
			e.Crash(0)
			if !e.Crashed(0) || s.reg.Peek() != shmem.Null {
				t.Fatalf("crash: crashed=%v register=%d, want true and the write discarded", e.Crashed(0), s.reg.Peek())
			}
			e.Relaunch(0)
			e.Step(0)
			if got := s.reg.Peek(); got != 20 || !e.Done(0) {
				t.Fatalf("relaunched session wrote %d (done=%v), want 20", got, e.Done(0))
			}
			if eng.ret != nil {
				if got, ok := eng.ret(e); !ok || got != 20 {
					t.Fatalf("relaunched session returned (%d, %v), want (20, true)", got, ok)
				}
			}
			if steps := e.Proc(0).Steps(); steps != 1 {
				t.Fatalf("steps after crash and relaunch %d, want 1", steps)
			}
		})
	}
}

// TestRelaunchRestartUsesLaneRoot: under a recovery model, a relaunched lane
// that crashes restarts by respawning the lane's root (the engine's one
// root) on either engine, and only the restart spends restart budget.
func TestRelaunchRestartUsesLaneRoot(t *testing.T) {
	for _, eng := range relaunchEngines {
		t.Run(eng.name, func(t *testing.T) {
			s := &spawnLog{}
			e := eng.new(s)
			e.SetModel(shmem.Model{Recovery: true, MaxRestarts: 2})
			e.Step(0)
			e.Relaunch(0)
			e.Crash(0)
			e.Restart(0)
			e.Step(0)
			if got := s.reg.Peek(); got != 30 {
				t.Fatalf("restarted session wrote %d, want 30", got)
			}
			if e.Restarts() != 1 || e.Proc(0).Restarts() != 1 {
				t.Fatalf("restarts: engine %d, proc %d, want 1 and 1", e.Restarts(), e.Proc(0).Restarts())
			}
		})
	}
}

// TestRelaunchPanics: relaunches are not replayable decisions, so a vexec
// engine with state capture on refuses them. The range and phase checks
// both engines share are rows of TestMisusePanicsOnBothEngines.
func TestRelaunchPanics(t *testing.T) {
	var reg shmem.Reg
	e := vexec.New(1, nil, func(p *shmem.Proc) vexec.Frame { return &writeOnceFrame{reg: &reg} })
	e.EnableState()
	e.Step(0)
	mustPanic(t, "Relaunch under EnableState", func() { e.Relaunch(0) })
}
