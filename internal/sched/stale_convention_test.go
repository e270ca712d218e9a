package sched_test

// Regression tests pinning two weak-register contracts on BOTH engines
// through the sched.Engine seam:
//
//  1. The StalePolicy index convention (satellite of the vexec PR): Run maps
//     a policy choice s to StepStale(pid, s-1); s=0 must read fresh, s=count
//     must select the last stale alternative, and anything outside [0..count]
//     must panic with the convention spelled out — never silently fold to a
//     fresh read, never surface as StepStale's internal index panic.
//
//  2. The stale-window × restart interaction: a crash grant clears the
//     crashed process's window, so a restarted reader starts its new
//     incarnation with no stale alternatives; and StepStale recomputes the
//     alternatives at call time, so a restart issued between StaleCount and
//     StepStale can never dish out a discarded choice.

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// twoWriteOneRead is the shared fixture: pid 0 writes x=1 then x=2, pid 1
// reads x once. Driving both writes while the read is pending builds the
// reader a stale window of {Null, 1} against the fresh value 2.
type fixture struct {
	x       *shmem.Reg
	readVal *int64
}

// writerFrame / readerFrame are the vexec compilation of the fixture bodies.
type writerFrame struct {
	x  *shmem.Reg
	pc uint8
}

func (f *writerFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.Intend(shmem.OpWrite, f.x)
	case 1:
		p.Write(f.x, 1)
		f.pc = 2
		return m.Intend(shmem.OpWrite, f.x)
	default:
		p.Write(f.x, 2)
		return vexec.Done
	}
}

type readerFrame struct {
	x       *shmem.Reg
	out     *int64
	entered bool
}

func (f *readerFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if !f.entered {
		f.entered = true
		return m.Intend(shmem.OpRead, f.x)
	}
	*f.out = p.Read(f.x)
	return vexec.Done
}

// engines returns both Engine implementations over fresh fixture instances.
func engines(t *testing.T, m shmem.Model) map[string]func() (sched.Engine, *fixture) {
	t.Helper()
	return map[string]func() (sched.Engine, *fixture){
		"goroutine": func() (sched.Engine, *fixture) {
			fx := &fixture{x: new(shmem.Reg), readVal: new(int64)}
			c := sched.NewController(2, nil, func(p *shmem.Proc) {
				if p.ID() == 0 {
					p.Write(fx.x, 1)
					p.Write(fx.x, 2)
					return
				}
				*fx.readVal = p.Read(fx.x)
			})
			c.SetModel(m)
			return c, fx
		},
		"vexec": func() (sched.Engine, *fixture) {
			fx := &fixture{x: new(shmem.Reg), readVal: new(int64)}
			e := vexec.New(2, nil, func(p *shmem.Proc) vexec.Frame {
				if p.ID() == 0 {
					return &writerFrame{x: fx.x}
				}
				return &readerFrame{x: fx.x, out: fx.readVal}
			})
			e.SetModel(m)
			return e, fx
		},
	}
}

// writerFirst grants pid 0 while it is pending, then pid 1 — building the
// full stale window before the read is granted.
func writerFirst() sched.Policy {
	return sched.PolicyFunc(func(e sched.Engine) int {
		return sched.NextBit(e.Pending(), -1)
	})
}

// pickStale wraps writerFirst with a scripted PickStale.
type pickStale struct {
	sched.Policy
	pick   func(count int) int
	counts []int
}

func (s *pickStale) PickStale(e sched.Engine, pid, count int) int {
	s.counts = append(s.counts, count)
	return s.pick(count)
}

func TestStalePolicyBoundaryValues(t *testing.T) {
	regular := shmem.Model{Regs: shmem.RegRegular}
	for name, mk := range engines(t, regular) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			// s = 0: the fresh read, never a panic.
			e, fx := mk()
			p := &pickStale{Policy: writerFirst(), pick: func(count int) int { return 0 }}
			e.(interface {
				Run(sched.Policy, sched.CrashPlan) sched.Result
			}).Run(p, nil)
			if len(p.counts) == 0 || p.counts[0] != 2 {
				t.Fatalf("PickStale consulted with counts %v, want first consult with 2 choices", p.counts)
			}
			if *fx.readVal != 2 {
				t.Fatalf("s=0 read %d, want the fresh value 2", *fx.readVal)
			}

			// s = count: the last stale alternative, never a panic.
			e, fx = mk()
			p = &pickStale{Policy: writerFirst(), pick: func(count int) int { return count }}
			e.(interface {
				Run(sched.Policy, sched.CrashPlan) sched.Result
			}).Run(p, nil)
			if *fx.readVal == 2 {
				t.Fatalf("s=count silently read fresh (%d); must select stale index count-1", *fx.readVal)
			}
			if *fx.readVal != 1 {
				t.Fatalf("s=count read %d, want the last stale alternative 1", *fx.readVal)
			}

			// s outside [0..count]: the convention panic, by name.
			for _, bad := range []int{-1, 3} {
				bad := bad
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatalf("s=%d did not panic", bad)
						}
						msg, ok := r.(string)
						if !ok || !strings.Contains(msg, "StalePolicy.PickStale returned") || !strings.Contains(msg, "the convention is 0 for the fresh read or 1..count") {
							t.Fatalf("s=%d panicked with %v, want the index-convention message", bad, r)
						}
					}()
					e, _ := mk()
					p := &pickStale{Policy: writerFirst(), pick: func(count int) int { return bad }}
					e.(interface {
						Run(sched.Policy, sched.CrashPlan) sched.Result
					}).Run(p, nil)
				}()
			}
		})
	}
}

func TestStaleWindowInvalidatedByReaderRestart(t *testing.T) {
	m := shmem.Model{Regs: shmem.RegRegular, Recovery: true}
	for name, mk := range engines(t, m) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			e, fx := mk()
			e.Step(0) // x=1; reader's window {Null}
			e.Step(0) // x=2; reader's window {Null, 1}
			if k := e.StaleCount(1); k != 2 {
				t.Fatalf("pre-crash StaleCount(1) = %d, want 2", k)
			}
			e.Crash(1)
			e.Restart(1)
			// The new incarnation must not inherit the dead one's window.
			if k := e.StaleCount(1); k != 0 {
				t.Fatalf("post-restart StaleCount(1) = %d, want 0 (window must be invalidated)", k)
			}
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("StepStale after restart with an empty window did not panic")
					}
					if msg, ok := r.(string); !ok || !strings.Contains(msg, "0 stale choices") {
						t.Fatalf("StepStale panicked with %v, want the 0-choices message", r)
					}
				}()
				e.StepStale(1, 0)
			}()
			e.Step(1)
			if *fx.readVal != 2 {
				t.Fatalf("restarted reader read %d, want the fresh value 2", *fx.readVal)
			}
		})
	}
}

func TestStepStaleRecomputesAcrossWriterRestart(t *testing.T) {
	m := shmem.Model{Regs: shmem.RegRegular, Recovery: true}
	for name, mk := range engines(t, m) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			e, fx := mk()
			e.Step(0) // x=1; reader's window {Null}
			k := e.StaleCount(1)
			if k != 1 {
				t.Fatalf("StaleCount(1) = %d, want 1", k)
			}
			// Restart the writer BETWEEN StaleCount and StepStale. The
			// cached count must stay valid because StepStale recomputes the
			// alternative set at call time.
			e.Crash(0)
			e.Restart(0)
			var buf []int64
			before := append([]int64(nil), e.StaleVals(1, buf)...)
			e.StepStale(1, k-1)
			if *fx.readVal != shmem.Null {
				t.Fatalf("stale read returned %d, want the windowed pre-write value Null (%d)", *fx.readVal, shmem.Null)
			}
			if len(before) != 1 || before[0] != shmem.Null {
				t.Fatalf("StaleVals across restart = %v, want [Null]", before)
			}
			// Drain the restarted writer; the run must complete cleanly.
			for e.PendingCount() > 0 {
				e.Step(sched.NextBit(e.Pending(), -1))
			}
			res := e.Result()
			if res.Err != nil {
				t.Fatalf("run errored: %v", res.Err)
			}
		})
	}
}
