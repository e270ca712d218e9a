package vexec_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// twoRegFrame is the contended two-register body the restore tests drive:
// write id+1 to a, read a, write what it read plus id to b, and read b into
// *got. Outcomes depend on the interleaving, so restore bugs surface as
// diverging reads or final values.
type twoRegFrame struct {
	a, b *shmem.Reg
	got  *int64
	pc   int
	v    int64
}

func (f *twoRegFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	id := int64(p.ID())
	f.pc++
	switch f.pc {
	case 1:
		return m.Intend(shmem.OpWrite, f.a)
	case 2:
		p.Write(f.a, id+1)
		return m.Intend(shmem.OpRead, f.a)
	case 3:
		f.v = p.Read(f.a)
		return m.Intend(shmem.OpWrite, f.b)
	case 4:
		p.Write(f.b, f.v+id)
		return m.Intend(shmem.OpRead, f.b)
	}
	*f.got = p.Read(f.b)
	return vexec.Done
}

func (f *twoRegFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *twoRegFrame) Load(src vexec.Frame)             { *f = *src.(*twoRegFrame) }

// twoRegs is one instance of the two-register system on n lanes.
type twoRegs struct {
	a, b shmem.Reg
	got  []int64
	e    *vexec.Exec
}

func newTwoRegs(n int) *twoRegs {
	s := &twoRegs{got: make([]int64, n)}
	s.e = vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		return &twoRegFrame{a: &s.a, b: &s.b, got: &s.got[p.ID()]}
	})
	s.e.EnableState()
	return s
}

// forRestorePaths runs f as the subtest of Restore's one path: copying the
// moved lanes' saved frames back.
func forRestorePaths(t *testing.T, f func(t *testing.T)) {
	t.Run("copy", f)
}

// roundRobin grants k decisions (or until done) in cyclic pid order.
func roundRobin(e *vexec.Exec, k int) {
	rr := &sched.RoundRobin{}
	for i := 0; i < k && e.PendingCount() > 0; i++ {
		e.Step(rr.Next(e))
	}
}

// TestCheckpointRestoreRoundTrip: capture mid-execution, run a divergent
// continuation to completion, restore, and verify the engine is
// bit-identical to the capture: fingerprint, grants, trace, pending
// intents, per-lane steps and register contents.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	forRestorePaths(t, func(t *testing.T) {
		s := newTwoRegs(3)
		e := s.e
		roundRobin(e, 4)
		snap := e.Checkpoint()
		wantFP, wantGrants, wantTrace := e.Fingerprint(), e.Grants(), e.Trace().String()
		var wantPending []int
		var wantKinds []shmem.OpKind
		for pid := sched.NextBit(e.Pending(), -1); pid >= 0; pid = sched.NextBit(e.Pending(), pid) {
			wantPending = append(wantPending, pid)
			wantKinds = append(wantKinds, e.Intent(pid).Kind)
		}
		var wantSteps [3]int64
		for pid := range wantSteps {
			wantSteps[pid] = e.Proc(pid).Steps()
		}
		wantRegs := [2]int64{s.a.Peek(), s.b.Peek()}

		// Diverge: crash one lane, finish the rest.
		e.Crash(sched.NextBit(e.Pending(), -1))
		roundRobin(e, 1<<10)

		e.Restore(snap, func(pid int) { s.got[pid] = 0 })
		if e.Fingerprint() != wantFP || e.Grants() != wantGrants || e.Trace().String() != wantTrace {
			t.Fatalf("fingerprint/grants/trace after restore (%#x, %d, %q), want (%#x, %d, %q)",
				e.Fingerprint(), e.Grants(), e.Trace(), wantFP, wantGrants, wantTrace)
		}
		var gotPending []int
		for pid := sched.NextBit(e.Pending(), -1); pid >= 0; pid = sched.NextBit(e.Pending(), pid) {
			gotPending = append(gotPending, pid)
		}
		if !slices.Equal(gotPending, wantPending) {
			t.Fatalf("pending after restore %v, want %v", gotPending, wantPending)
		}
		for i, pid := range wantPending {
			if k := e.Intent(pid).Kind; k != wantKinds[i] {
				t.Fatalf("lane %d intent %s after restore, want %s", pid, k, wantKinds[i])
			}
		}
		for pid, want := range wantSteps {
			if got := e.Proc(pid).Steps(); got != want {
				t.Fatalf("lane %d steps after restore %d, want %d", pid, got, want)
			}
		}
		if got := [2]int64{s.a.Peek(), s.b.Peek()}; got != wantRegs {
			t.Fatalf("registers (a, b) after restore %v, want %v", got, wantRegs)
		}
	})
}

// TestRestoreContinuationMatchesReplay: after restoring, driving the same
// continuation must produce exactly the execution an uninterrupted engine
// produces from the full schedule — same fingerprint, steps, observations
// and final register contents.
func TestRestoreContinuationMatchesReplay(t *testing.T) {
	forRestorePaths(t, func(t *testing.T) {
		const n = 3
		ref := newTwoRegs(n)
		roundRobin(ref.e, 1<<10)
		want := ref.e.Result()

		s := newTwoRegs(n)
		roundRobin(s.e, 3)
		snap := s.e.Checkpoint()
		for s.e.PendingCount() > 0 {
			s.e.Step(sched.NextBit(s.e.Pending(), -1))
		}
		s.e.Restore(snap, func(pid int) { s.got[pid] = 0 })
		// Restore rewinds the engine, never the policy; after 3 cyclic grants
		// over 3 lanes a fresh cursor picks what the original one would.
		roundRobin(s.e, 1<<10)
		got := s.e.Result()
		if got.Fingerprint != want.Fingerprint || !slices.Equal(got.Steps, want.Steps) || !slices.Equal(s.got, ref.got) {
			t.Fatalf("restored continuation (%#x, steps %v, got %v), want (%#x, %v, %v)",
				got.Fingerprint, got.Steps, s.got, want.Fingerprint, want.Steps, ref.got)
		}
		if g, w := [2]int64{s.a.Peek(), s.b.Peek()}, [2]int64{ref.a.Peek(), ref.b.Peek()}; g != w {
			t.Fatalf("final registers (a, b) %v, want %v", g, w)
		}
	})
}

// TestRestoreCrashedProcess: a lane crashed before the checkpoint stays
// crashed after restore, at the same step count, and the survivors finish.
func TestRestoreCrashedProcess(t *testing.T) {
	forRestorePaths(t, func(t *testing.T) {
		s := newTwoRegs(3)
		e := s.e
		e.Step(0)
		e.Crash(1)
		snap := e.Checkpoint()
		for e.PendingCount() > 0 {
			e.Step(sched.NextBit(e.Pending(), -1))
		}
		e.Restore(snap, func(pid int) { s.got[pid] = 0 })
		if !e.Crashed(1) || e.Proc(1).Steps() != 0 {
			t.Fatalf("lane 1 after restore: crashed=%v steps=%d, want crashed at 0 steps", e.Crashed(1), e.Proc(1).Steps())
		}
		for e.PendingCount() > 0 {
			e.Step(sched.NextBit(e.Pending(), -1))
		}
		if res := e.Result(); !slices.Equal(res.Crashed, []bool{false, true, false}) || !e.Done(0) || !e.Done(2) {
			t.Fatalf("restored run: crashed %v, done %v/%v; want only lane 1 crashed and the rest done", res.Crashed, e.Done(0), e.Done(2))
		}
	})
}

// refFrame writes a fresh {id+10} to a Ref register, reads it into *got,
// then writes {id+20}.
type refFrame struct {
	ref *shmem.Ref[int64]
	got *int64
	pc  int
}

func (f *refFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	id := int64(p.ID())
	f.pc++
	switch f.pc {
	case 1:
		return m.Intend(shmem.OpWrite, f.ref)
	case 2:
		v := id + 10
		shmem.WriteRef(p, f.ref, &v)
		return m.Intend(shmem.OpRead, f.ref)
	case 3:
		*f.got = *shmem.ReadRef(p, f.ref)
		return m.Intend(shmem.OpWrite, f.ref)
	}
	v := id + 20
	shmem.WriteRef(p, f.ref, &v)
	return vexec.Done
}

func (f *refFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *refFrame) Load(src vexec.Frame)             { *f = *src.(*refFrame) }

// TestRestoreRefRegisters: pointer registers (the atomic-snapshot building
// block) rewind to the captured pointer, and the continuation reads what
// the restored register holds.
func TestRestoreRefRegisters(t *testing.T) {
	var ref shmem.Ref[int64]
	got := make([]int64, 2)
	e := vexec.New(2, nil, func(p *shmem.Proc) vexec.Frame {
		return &refFrame{ref: &ref, got: &got[p.ID()]}
	})
	e.EnableState()
	e.Step(0) // lane 0 writes {10}
	e.Step(1) // lane 1 writes {11}
	e.Step(0) // lane 0 reads {11}
	snap := e.Checkpoint()
	want := ref.PeekRef()
	e.Step(1) // lane 1 reads {11}
	e.Step(1) // lane 1 writes {21}
	e.Restore(snap, func(pid int) { got[pid] = 0 })
	if ref.PeekRef() != want {
		t.Fatalf("Ref pointer after restore %p, want %p", ref.PeekRef(), want)
	}
	if got[0] != 11 {
		t.Fatalf("lane 0's observation %d after restore, want 11", got[0])
	}
	// Continuation (lowest pending first): lane 0 writes {20}, lane 1 reads
	// it, lane 1 writes {21}.
	for e.PendingCount() > 0 {
		e.Step(sched.NextBit(e.Pending(), -1))
	}
	if got[1] != 20 || *ref.PeekRef() != 21 {
		t.Fatalf("continuation after restore: got[1]=%d final=%d, want 20/21", got[1], *ref.PeekRef())
	}
}

// mustPanic runs f and requires it to panic with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestRestoreRejectsNonAncestor: registers are restored through an undo log
// that describes only the current branch, so a snapshot taken on a branch a
// later Restore abandoned must be refused — even when the current branch is
// at least as deep, which a trace-length or grant-count check cannot tell
// apart from an ancestor.
func TestRestoreRejectsNonAncestor(t *testing.T) {
	s := newTwoRegs(2)
	e := s.e
	reset := func(pid int) { s.got[pid] = 0 }
	a := e.Checkpoint()
	e.Step(0)
	e.Step(0)
	b := e.Checkpoint()
	e.Restore(a, reset)
	e.Step(1)
	e.Step(1)
	e.Step(1)
	mustPanic(t, "not an ancestor", func() { e.Restore(b, reset) })
	// The refusal left the engine alone: the ancestor still restores.
	e.Restore(a, reset)
	if e.TraceLen() != 0 || s.a.Peek() != 0 || s.b.Peek() != 0 {
		t.Fatalf("after restoring the root: trace %d, registers (%d, %d), want 0, (0, 0)", e.TraceLen(), s.a.Peek(), s.b.Peek())
	}
}

// TestRestoreRejectsForeignSnapshots: a released snapshot and another
// engine's snapshot are refused.
func TestRestoreRejectsForeignSnapshots(t *testing.T) {
	s, o := newTwoRegs(2), newTwoRegs(2)
	released := s.e.Checkpoint()
	s.e.ReleaseState(released)
	mustPanic(t, "released snapshot", func() { s.e.Restore(released, nil) })
	mustPanic(t, "different engine", func() { s.e.Restore(o.e.Checkpoint(), nil) })
}

// readOnceFrame reads r once. It is deliberately not a vexec.Cloner.
type readOnceFrame struct {
	r     *shmem.Reg
	armed bool
}

func (f *readOnceFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.armed {
		return m.Return(p.Read(f.r), true)
	}
	f.armed = true
	return m.Intend(shmem.OpRead, f.r)
}

// TestCheckpointNeedsCloner: Restore puts lanes back only by copy, so the
// first capture that meets a pending lane whose root frame is not a Cloner
// fails with one line that names the frame type and the fix — bare, and
// through the capture wrapper, where the type to fix is the wrapped one.
func TestCheckpointNeedsCloner(t *testing.T) {
	const want = "vexec: lane 0 root frame *vexec_test.readOnceFrame is not a vexec.Cloner (give it Save/Load; vexec.SaveValue serves plain-value frames)"
	for _, wrap := range []bool{false, true} {
		var r shmem.Reg
		var got int64
		var ok bool
		e := vexec.New(1, nil, func(p *shmem.Proc) vexec.Frame {
			if wrap {
				return vexec.Capture(&readOnceFrame{r: &r}, &got, &ok, nil)
			}
			return &readOnceFrame{r: &r}
		})
		e.EnableState()
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("capture-wrapped=%v: panic %v, want %q", wrap, r, want)
				}
			}()
			e.Checkpoint()
		}()
	}
}
