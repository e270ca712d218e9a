package vexec_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// refHash is the reference vexec's StateHash is checked against: the same
// formula, folded from the goroutine oracle's observable surface alone. It
// wraps a Controller and watches every decision go by:
//
//   - memory: before each write grant it reads the target register's word,
//     registering the register (in first-write-grant order, that word as its
//     initial value) on first touch; after the grant it folds the pre- and
//     post-image against the initial value;
//   - positions: each process's read-history hash (read logs are enabled
//     right after NewController), steps, restarts and phase, the phase
//     derived from the pending set, Done and Crashed;
//   - stale windows (weak registers): it keeps each pending read's window by
//     the engines' rule — a write grant offers the overwritten value to every
//     other pending reader of the register, up to eight distinct values, and
//     any grant clears the granted process's own window — and requires the
//     window to reproduce the oracle's StaleVals wherever it folds one.
//
// Drive it through sched.DriveEngine or sched.ApplyTraceTo so every decision
// passes through the wrapper.
type refHash struct {
	*sched.Controller
	t       testing.TB
	regID   map[any]int
	init    []uint64
	cells   []shmem.StateCell
	regHash [2]uint64
	win     [][]int64
}

// newRefHash wraps a freshly constructed controller (no grant issued yet).
func newRefHash(t testing.TB, c *sched.Controller) *refHash {
	for pid := 0; pid < c.N(); pid++ {
		c.Proc(pid).EnableReadLog()
	}
	return &refHash{Controller: c, t: t, regID: make(map[any]int), win: make([][]int64, c.N())}
}

func (r *refHash) Step(pid int) { r.grant(pid, false, func() { r.Controller.Step(pid) }) }

func (r *refHash) StepN(pid, k int) {
	if k != 1 {
		r.t.Fatalf("refHash: StepN(%d, %d): the state hash needs every decision individually", pid, k)
	}
	r.Step(pid)
}

func (r *refHash) StepStale(pid, idx int) {
	r.grant(pid, false, func() { r.Controller.StepStale(pid, idx) })
}

func (r *refHash) Crash(pid int) { r.grant(pid, true, func() { r.Controller.Crash(pid) }) }

// grant runs one grant to pending process pid, folding the register it
// writes and maintaining the stale windows around it.
func (r *refHash) grant(pid int, crash bool, do func()) {
	in := r.Intent(pid)
	id := -1
	var pre uint64
	if !crash && in.Kind == shmem.OpWrite {
		cell := in.Reg.(shmem.StateCell)
		var seen bool
		if id, seen = r.regID[in.Reg]; !seen {
			id = len(r.cells)
			r.regID[in.Reg] = id
			r.cells = append(r.cells, cell)
			r.init = append(r.init, cell.StateWord())
		}
		pre = cell.StateWord()
		if reg, ok := in.Reg.(*shmem.Reg); ok && r.Model().Regs != shmem.RegAtomic {
			v := reg.Peek()
			for q := r.NextPending(-1); q >= 0; q = r.NextPending(q) {
				if q != pid && r.Intent(q).Kind == shmem.OpRead && r.Intent(q).Reg == in.Reg &&
					len(r.win[q]) < 8 && !slices.Contains(r.win[q], v) {
					r.win[q] = append(r.win[q], v)
				}
			}
		}
	}
	r.win[pid] = r.win[pid][:0]
	do()
	if id >= 0 {
		r.fold(id, pre)
		r.fold(id, r.cells[id].StateWord())
	}
}

func (r *refHash) fold(id int, word uint64) {
	if word == r.init[id] {
		return
	}
	r.regHash[0] ^= xrand.Mix(uint64(id)+1, word)
	r.regHash[1] ^= xrand.Mix(^uint64(id), word)
}

// StateHash folds the current decision point.
func (r *refHash) StateHash() [2]uint64 {
	h := r.regHash
	for pid := 0; pid < r.N(); pid++ {
		p := r.Proc(pid)
		rh := p.ReadHash()
		pos := uint64(p.Steps())<<8 | uint64(p.Restarts())<<3 | r.phase(pid)
		h[0] = xrand.Mix(h[0]^rh[0], uint64(pid)+1) ^ pos
		h[1] = xrand.Mix(h[1]^rh[1], ^uint64(pid)) + pos
	}
	if r.Model().Regs == shmem.RegAtomic {
		return h
	}
	for pid, w := range r.win {
		r.checkWindow(pid)
		for _, v := range w {
			h[0] ^= xrand.Mix(uint64(pid)+0x51ed, uint64(v))
			h[1] ^= xrand.Mix(^uint64(pid)-0x51ed, uint64(v))
		}
	}
	return h
}

// phase encodes process pid's phase as both engines number it: pending 1,
// done 2, crashed 3, panicked 4.
func (r *refHash) phase(pid int) uint64 {
	switch {
	case r.NextPending(pid-1) == pid:
		return 1
	case r.Done(pid):
		return 2
	case r.Crashed(pid):
		return 3
	}
	return 4
}

// checkWindow requires pid's tracked window to yield exactly the stale
// choices the oracle offers: the window's values other than the register's
// current one, plus null under safe registers.
func (r *refHash) checkWindow(pid int) {
	r.t.Helper()
	got := r.StaleVals(pid, nil)
	var want []int64
	if len(r.win[pid]) > 0 {
		if r.NextPending(pid-1) != pid {
			r.t.Fatalf("refHash: process %d holds a stale window %v but is not pending", pid, r.win[pid])
		}
		cur := r.Intent(pid).Reg.(*shmem.Reg).Peek()
		for _, v := range r.win[pid] {
			if v != cur {
				want = append(want, v)
			}
		}
		if r.Model().Regs == shmem.RegSafe && cur != shmem.Null && !slices.Contains(want, shmem.Null) {
			want = append(want, shmem.Null)
		}
	}
	if !slices.Equal(got, want) {
		r.t.Fatalf("refHash: process %d window %v implies stale choices %v, the oracle offers %v", pid, r.win[pid], want, got)
	}
}

// TestStateHashDistinguishesStates: different interleavings that leave
// different memory or local states must hash differently; re-reaching the
// same point must hash identically, on a fresh engine and on the oracle's
// reference.
func TestStateHashDistinguishesStates(t *testing.T) {
	lanes := [][]bool{{true, false, true}, {true, false, true}}
	mk := func() *vexec.Exec {
		var r shmem.Reg
		e := vexec.New(2, []int64{10, 20}, func(p *shmem.Proc) vexec.Frame {
			return &opsFrame{r: &r, ops: lanes[p.ID()]}
		})
		e.EnableState()
		return e
	}
	e1 := mk()
	e1.Step(0)
	h1 := e1.StateHash()
	e2 := mk()
	e2.Step(1)
	if e2.StateHash() == h1 {
		t.Fatal("states after different first writers hash equal")
	}
	e3 := mk()
	e3.Step(0)
	if got := e3.StateHash(); got != h1 {
		t.Fatalf("same schedule hashes differently across engines: %x vs %x", got, h1)
	}
	var r shmem.Reg
	ref := newRefHash(t, sched.NewController(2, []int64{10, 20}, func(p *shmem.Proc) {
		for _, write := range lanes[p.ID()] {
			if write {
				p.Write(&r, p.Name())
			} else {
				p.Read(&r)
			}
		}
	}))
	defer ref.Abort()
	ref.Step(0)
	if got := ref.StateHash(); got != h1 {
		t.Fatalf("oracle reference hash %x, vexec %x", got, h1)
	}
}

// TestStepNForbiddenUnderState: batching would hide decisions from the
// checkpoint layer; it must panic loudly.
func TestStepNForbiddenUnderState(t *testing.T) {
	var r shmem.Reg
	e := vexec.New(2, nil, func(p *shmem.Proc) vexec.Frame {
		return &opsFrame{r: &r, ops: []bool{false, false}}
	})
	e.EnableState()
	defer func() {
		if recover() == nil {
			t.Fatal("StepN under EnableState did not panic")
		}
	}()
	e.StepN(0, 2)
}

// twoRegFrame is the contended two-register body the restore tests drive:
// write id+1 to a, read a, write what it read plus id to b, and read b into
// *got. Outcomes depend on the interleaving, so restore bugs surface as
// diverging reads or final values. It is a Cloner, so restores copy it back
// unless the engine is forced onto catch-up replay.
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

func (f *twoRegFrame) Save(dst vexec.Frame) vexec.Frame {
	return vexec.SaveWith(f, dst, func(d, s *twoRegFrame) { *d = *s })
}

func (f *twoRegFrame) Load(src vexec.Frame) { *f = *src.(*twoRegFrame) }

// twoRegs is one instance of the two-register system on n lanes.
type twoRegs struct {
	a, b shmem.Reg
	got  []int64
	e    *vexec.Exec
}

func newTwoRegs(n int, replay bool) *twoRegs {
	s := &twoRegs{got: make([]int64, n)}
	s.e = vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		return &twoRegFrame{a: &s.a, b: &s.b, got: &s.got[p.ID()]}
	})
	s.e.EnableState()
	s.e.ForceReplay(replay)
	return s
}

// forRestorePaths runs f with restores by copy and by catch-up replay.
func forRestorePaths(t *testing.T, f func(t *testing.T, replay bool)) {
	t.Run("copy", func(t *testing.T) { f(t, false) })
	t.Run("replay", func(t *testing.T) { f(t, true) })
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
// bit-identical to the capture: hash, fingerprint, grants, trace, pending
// intents, per-lane steps and read logs, register contents and versions.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	forRestorePaths(t, func(t *testing.T, replay bool) {
		s := newTwoRegs(3, replay)
		e := s.e
		roundRobin(e, 4)
		snap := e.Checkpoint()
		wantHash, wantFP, wantGrants, wantTrace := e.StateHash(), e.Fingerprint(), e.Grants(), e.Trace().String()
		var wantPending []int
		var wantKinds []shmem.OpKind
		for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
			wantPending = append(wantPending, pid)
			wantKinds = append(wantKinds, e.Intent(pid).Kind)
		}
		var wantPos [3][2]int64
		for pid := range wantPos {
			wantPos[pid] = [2]int64{e.Proc(pid).Steps(), int64(e.Proc(pid).ReadLogLen())}
		}
		wantRegs := [4]uint64{uint64(s.a.Peek()), uint64(s.b.Peek()), s.a.Version(), s.b.Version()}

		// Diverge: crash one lane, finish the rest.
		e.Crash(e.NextPending(-1))
		roundRobin(e, 1<<10)

		e.Restore(snap, func(pid int) { s.got[pid] = 0 })
		if h := e.StateHash(); h != wantHash {
			t.Fatalf("StateHash after restore %x, want %x", h, wantHash)
		}
		if e.Fingerprint() != wantFP || e.Grants() != wantGrants || e.Trace().String() != wantTrace {
			t.Fatalf("fingerprint/grants/trace after restore (%#x, %d, %q), want (%#x, %d, %q)",
				e.Fingerprint(), e.Grants(), e.Trace(), wantFP, wantGrants, wantTrace)
		}
		var gotPending []int
		for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
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
		for pid, want := range wantPos {
			if got := [2]int64{e.Proc(pid).Steps(), int64(e.Proc(pid).ReadLogLen())}; got != want {
				t.Fatalf("lane %d (steps, reads) after restore %v, want %v", pid, got, want)
			}
		}
		if got := [4]uint64{uint64(s.a.Peek()), uint64(s.b.Peek()), s.a.Version(), s.b.Version()}; got != wantRegs {
			t.Fatalf("registers (a, b, versions) after restore %v, want %v", got, wantRegs)
		}
	})
}

// TestRestoreContinuationMatchesReplay: after restoring, driving the same
// continuation must produce exactly the execution an uninterrupted engine
// produces from the full schedule — same fingerprint, steps, observations
// and final state hash.
func TestRestoreContinuationMatchesReplay(t *testing.T) {
	forRestorePaths(t, func(t *testing.T, replay bool) {
		const n = 3
		ref := newTwoRegs(n, false)
		roundRobin(ref.e, 1<<10)
		want := ref.e.Result()

		s := newTwoRegs(n, replay)
		roundRobin(s.e, 3)
		snap := s.e.Checkpoint()
		for s.e.PendingCount() > 0 {
			s.e.Step(s.e.NextPending(-1))
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
		if h, w := s.e.StateHash(), ref.e.StateHash(); h != w {
			t.Fatalf("final StateHash %x, want %x", h, w)
		}
	})
}

// TestRestoreCrashedProcess: a lane crashed before the checkpoint stays
// crashed after restore, at the same step count, and the survivors finish.
func TestRestoreCrashedProcess(t *testing.T) {
	forRestorePaths(t, func(t *testing.T, replay bool) {
		s := newTwoRegs(3, replay)
		e := s.e
		e.Step(0)
		e.Crash(1)
		snap := e.Checkpoint()
		for e.PendingCount() > 0 {
			e.Step(e.NextPending(-1))
		}
		e.Restore(snap, func(pid int) { s.got[pid] = 0 })
		if !e.Crashed(1) || e.Proc(1).Steps() != 0 {
			t.Fatalf("lane 1 after restore: crashed=%v steps=%d, want crashed at 0 steps", e.Crashed(1), e.Proc(1).Steps())
		}
		for e.PendingCount() > 0 {
			e.Step(e.NextPending(-1))
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
		e.Step(e.NextPending(-1))
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
	s := newTwoRegs(2, false)
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
	s, o := newTwoRegs(2, false), newTwoRegs(2, false)
	released := s.e.Checkpoint()
	s.e.ReleaseState(released)
	mustPanic(t, "released snapshot", func() { s.e.Restore(released, nil) })
	mustPanic(t, "different engine", func() { s.e.Restore(o.e.Checkpoint(), nil) })
}
