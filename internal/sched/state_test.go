package sched

import (
	"testing"

	"repro/internal/shmem"
)

// stateFixture builds a contended two-register system: each process writes
// its id to a shared register, reads it back, writes the sum to a second
// register, and records what it saw. Outcomes depend on the interleaving,
// so restore bugs surface as diverging reads or final values.
type stateFixture struct {
	a, b shmem.Reg
	got  []int64
}

func newStateFixture(n int) *stateFixture { return &stateFixture{got: make([]int64, n)} }

func (f *stateFixture) body(p *shmem.Proc) {
	p.Write(&f.a, int64(p.ID()+1))
	v := p.Read(&f.a)
	p.Write(&f.b, v+int64(p.ID()))
	f.got[p.ID()] = p.Read(&f.b)
}

// drive steps the controller round-robin for k grants (or until done).
func drive(c *Controller, k int) {
	rr := &RoundRobin{}
	for i := 0; i < k && c.PendingCount() > 0; i++ {
		c.Step(rr.NextIter(c))
	}
}

// TestCheckpointRestoreRoundTrip: capture mid-execution, run a divergent
// continuation to completion, restore, and verify the controller is
// bit-identical to the capture: hash, fingerprint, grants, pending intents,
// per-process steps and read logs.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	f := newStateFixture(3)
	c := NewController(3, nil, f.body)
	c.EnableState()
	defer c.Abort()

	drive(c, 4)
	snap := c.Checkpoint()
	wantHash := c.StateHash()
	wantFP := c.Fingerprint()
	wantGrants := c.Grants()
	wantTrace := c.Trace()
	wantPending := c.Pending()
	wantKinds := make([]shmem.OpKind, 0, len(wantPending))
	for _, pid := range wantPending {
		wantKinds = append(wantKinds, c.Intent(pid).Kind)
	}
	wantSteps := make([]int64, 3)
	wantReads := make([]int, 3)
	for pid := 0; pid < 3; pid++ {
		wantSteps[pid] = c.Proc(pid).Steps()
		wantReads[pid] = c.Proc(pid).ReadLogLen()
	}
	wantA, wantB := f.a.Peek(), f.b.Peek()
	wantAv, wantBv := f.a.Version(), f.b.Version()

	// Diverge: crash one process, finish the rest.
	if pid := c.NextPending(-1); pid >= 0 {
		c.Crash(pid)
	}
	for c.PendingCount() > 0 {
		drive(c, 1)
	}

	c.Restore(snap, nil)

	if got := c.StateHash(); got != wantHash {
		t.Fatalf("StateHash after restore %x, want %x", got, wantHash)
	}
	if c.Fingerprint() != wantFP || c.Grants() != wantGrants {
		t.Fatalf("fingerprint/grants after restore (%#x, %d), want (%#x, %d)", c.Fingerprint(), c.Grants(), wantFP, wantGrants)
	}
	if got := c.Trace(); got.String() != wantTrace.String() {
		t.Fatalf("trace after restore %q, want %q", got, wantTrace)
	}
	gotPending := c.Pending()
	if len(gotPending) != len(wantPending) {
		t.Fatalf("pending after restore %v, want %v", gotPending, wantPending)
	}
	for i, pid := range wantPending {
		if gotPending[i] != pid || c.Intent(pid).Kind != wantKinds[i] {
			t.Fatalf("pending[%d] = %d/%s, want %d/%s", i, gotPending[i], c.Intent(gotPending[i]).Kind, pid, wantKinds[i])
		}
	}
	for pid := 0; pid < 3; pid++ {
		if c.Proc(pid).Steps() != wantSteps[pid] || c.Proc(pid).ReadLogLen() != wantReads[pid] {
			t.Fatalf("proc %d position (%d steps, %d reads), want (%d, %d)",
				pid, c.Proc(pid).Steps(), c.Proc(pid).ReadLogLen(), wantSteps[pid], wantReads[pid])
		}
	}
	if f.a.Peek() != wantA || f.b.Peek() != wantB {
		t.Fatalf("registers after restore (%d, %d), want (%d, %d)", f.a.Peek(), f.b.Peek(), wantA, wantB)
	}
	if f.a.Version() != wantAv || f.b.Version() != wantBv {
		t.Fatalf("versions after restore (%d, %d), want (%d, %d)", f.a.Version(), f.b.Version(), wantAv, wantBv)
	}
}

// TestRestoreContinuationMatchesReplay: after restoring, driving the same
// continuation must produce exactly the execution a fresh controller
// produces from the full schedule — same fingerprint, same steps, same
// observable outcome.
func TestRestoreContinuationMatchesReplay(t *testing.T) {
	const n = 3

	// Reference: one uninterrupted cyclic round-robin execution.
	fRef := newStateFixture(n)
	cRef := NewController(n, nil, fRef.body)
	cRef.EnableState()
	rrRef := &RoundRobin{}
	for cRef.PendingCount() > 0 {
		cRef.Step(rrRef.NextIter(cRef))
	}
	refRes := cRef.Result()
	refHash := cRef.StateHash()

	// Checkpoint at depth 3, wander off (finish the run), restore, re-drive
	// the same round-robin continuation. RoundRobin's cursor state is part of
	// the continuation, so rebuild it from scratch each time: restore puts
	// the controller — not the policy — back.
	f := newStateFixture(n)
	c := NewController(n, nil, f.body)
	c.EnableState()
	drive(c, 3)
	snap := c.Checkpoint()
	for c.PendingCount() > 0 {
		c.Step(c.NextPending(-1))
	}
	c.Restore(snap, func(pid int) { f.got[pid] = 0 })
	// A fresh cursor behaves identically to the checkpoint-time cursor here:
	// after 3 cyclic grants over 3 processes both wrap to the lowest pending
	// pid. (Restore rewinds the controller, never the policy.)
	rr := &RoundRobin{}
	for c.PendingCount() > 0 {
		c.Step(rr.NextIter(c))
	}
	res := c.Result()

	if res.Fingerprint != refRes.Fingerprint {
		t.Fatalf("restored continuation fingerprint %#x, want %#x", res.Fingerprint, refRes.Fingerprint)
	}
	for pid := 0; pid < n; pid++ {
		if res.Steps[pid] != refRes.Steps[pid] {
			t.Fatalf("proc %d steps %d, want %d", pid, res.Steps[pid], refRes.Steps[pid])
		}
		if f.got[pid] != fRef.got[pid] {
			t.Fatalf("proc %d observed %d, want %d", pid, f.got[pid], fRef.got[pid])
		}
	}
	if got := c.StateHash(); got != refHash {
		t.Fatalf("final StateHash %x, want %x", got, refHash)
	}
}

// TestRestoreCrashedProcess: a process crashed before the checkpoint stays
// crashed after restore, at the same step count, and the survivors finish.
func TestRestoreCrashedProcess(t *testing.T) {
	f := newStateFixture(3)
	c := NewController(3, nil, f.body)
	c.EnableState()
	c.Step(0)
	c.Crash(1)
	snap := c.Checkpoint()
	// Diverge: finish everyone.
	for c.PendingCount() > 0 {
		c.Step(c.NextPending(-1))
	}
	c.Restore(snap, nil)
	if !c.Crashed(1) {
		t.Fatal("crashed process resurrected by restore")
	}
	if got := c.Proc(1).Steps(); got != 0 {
		t.Fatalf("crashed process steps %d after restore, want 0", got)
	}
	for c.PendingCount() > 0 {
		c.Step(c.NextPending(-1))
	}
	res := c.Result()
	if !res.Crashed[1] || res.Crashed[0] || res.Crashed[2] {
		t.Fatalf("crash pattern after restored run: %v", res.Crashed)
	}
	if !c.Done(0) || !c.Done(2) {
		t.Fatal("survivors did not finish after restore")
	}
}

// TestStateHashDistinguishesStates: different interleavings that leave
// different memory or local states must hash differently; re-reaching the
// same point must hash identically.
func TestStateHashDistinguishesStates(t *testing.T) {
	mk := func() (*stateFixture, *Controller) {
		f := newStateFixture(2)
		c := NewController(2, nil, f.body)
		c.EnableState()
		return f, c
	}
	_, c1 := mk()
	defer c1.Abort()
	c1.Step(0)
	h1 := c1.StateHash()
	_, c2 := mk()
	defer c2.Abort()
	c2.Step(1)
	h2 := c2.StateHash()
	if h1 == h2 {
		t.Fatal("states after different first writers hash equal")
	}
	_, c3 := mk()
	defer c3.Abort()
	c3.Step(0)
	if got := c3.StateHash(); got != h1 {
		t.Fatalf("same schedule hashes differently across controllers: %x vs %x", got, h1)
	}
}

// TestRestoreRefRegisters: pointer registers (the atomic-snapshot building
// block) rewind to the captured pointer, and a catch-up re-run consuming
// logged Ref reads reconstructs local state.
func TestRestoreRefRegisters(t *testing.T) {
	type payload struct{ v int64 }
	var ref shmem.Ref[payload]
	got := make([]int64, 2)
	body := func(p *shmem.Proc) {
		shmem.WriteRef(p, &ref, &payload{v: int64(p.ID() + 10)})
		if q := shmem.ReadRef(p, &ref); q != nil {
			got[p.ID()] = q.v
		}
		shmem.WriteRef(p, &ref, &payload{v: int64(p.ID() + 20)})
	}
	c := NewController(2, nil, body)
	c.EnableState()
	defer c.Abort()
	c.Step(0) // p0 writes {10}
	c.Step(1) // p1 writes {11}
	c.Step(0) // p0 reads {11}
	snap := c.Checkpoint()
	want := ref.PeekRef()
	c.Step(1) // p1 reads {11}
	c.Step(1) // p1 writes {21}
	c.Restore(snap, nil)
	if ref.PeekRef() != want {
		t.Fatalf("Ref pointer after restore %p, want %p", ref.PeekRef(), want)
	}
	if got[0] != 11 {
		t.Fatalf("p0's catch-up observation %d, want 11", got[0])
	}
	// Continuation (lowest pending first): p0 writes {20}, p1 reads it, p1
	// writes {21}.
	for c.PendingCount() > 0 {
		c.Step(c.NextPending(-1))
	}
	if got[1] != 20 || ref.PeekRef().v != 21 {
		t.Fatalf("continuation after restore: got[1]=%d final=%d, want 20/21", got[1], ref.PeekRef().v)
	}
}

// TestStepNForbiddenUnderState: batching would hide decisions from the
// checkpoint layer; it must panic loudly.
func TestStepNForbiddenUnderState(t *testing.T) {
	var r shmem.Reg
	c := NewController(2, nil, func(p *shmem.Proc) {
		p.Read(&r)
		p.Read(&r)
	})
	c.EnableState()
	defer c.Abort()
	defer func() {
		if recover() == nil {
			t.Fatal("StepN under EnableState did not panic")
		}
	}()
	c.StepN(0, 2)
}
