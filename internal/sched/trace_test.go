package sched

import (
	"testing"

	"repro/internal/shmem"
)

// TestNextPendingKindAtWordBoundary pins the reader and writer words across
// the pending bitmap's 64-bit word boundary: pids 63 and 64 live in
// different words, and walking PendingReads and Pending &^ PendingReads must
// neither skip nor duplicate either side under mixed read/write intents.
func TestNextPendingKindAtWordBoundary(t *testing.T) {
	const n = 66
	var r shmem.Reg
	// Even pids post a read first, odd pids post a write first, so both
	// kinds straddle the boundary (63 writes, 64 reads).
	c := NewController(n, nil, func(p *shmem.Proc) {
		if p.ID()%2 == 0 {
			p.Read(&r)
			p.Write(&r, int64(p.ID()))
		} else {
			p.Write(&r, int64(p.ID()))
			p.Read(&r)
		}
	})
	defer c.Abort()

	// nextKind is the smallest pending pid after after with a kind intent.
	nextKind := func(after int, kind shmem.OpKind) int {
		words := make([]uint64, len(c.Pending()))
		for w := range words {
			words[w] = c.Pending()[w] &^ c.PendingReads()[w]
			if kind == shmem.OpRead {
				words[w] = c.PendingReads()[w]
			}
		}
		return NextBit(words, after)
	}
	collect := func(kind shmem.OpKind) []int {
		var got []int
		for pid := nextKind(-1, kind); pid >= 0; pid = nextKind(pid, kind) {
			if c.Intent(pid).Kind != kind {
				t.Fatalf("pid %d in the %s words posted %s", pid, kind, c.Intent(pid).Kind)
			}
			got = append(got, pid)
		}
		return got
	}
	readers := collect(shmem.OpRead)
	writers := collect(shmem.OpWrite)
	if len(readers) != n/2 || len(writers) != n/2 {
		t.Fatalf("split %d readers / %d writers, want %d/%d", len(readers), len(writers), n/2, n/2)
	}
	for i, pid := range readers {
		if pid != 2*i {
			t.Fatalf("readers[%d] = %d, want %d", i, pid, 2*i)
		}
	}
	for i, pid := range writers {
		if pid != 2*i+1 {
			t.Fatalf("writers[%d] = %d, want %d", i, pid, 2*i+1)
		}
	}

	// Resume exactly at the boundary from both sides.
	if got := nextKind(62, shmem.OpWrite); got != 63 {
		t.Fatalf("next writer after 62 = %d, want 63", got)
	}
	if got := nextKind(63, shmem.OpRead); got != 64 {
		t.Fatalf("next reader after 63 = %d, want 64", got)
	}
	if got := nextKind(63, shmem.OpWrite); got != 65 {
		t.Fatalf("next writer after 63 = %d, want 65", got)
	}
	if got := nextKind(64, shmem.OpRead); got != -1 {
		t.Fatalf("next reader after 64 = %d, want -1", got)
	}

	// Step pid 63 and 64 across their first ops: 63 flips to a read intent,
	// 64 to a write intent, and the words must track the change.
	c.Step(63)
	c.Step(64)
	if got := nextKind(62, shmem.OpRead); got != 63 {
		t.Fatalf("after stepping, next reader after 62 = %d, want 63", got)
	}
	if got := nextKind(63, shmem.OpWrite); got != 64 {
		t.Fatalf("after stepping, next writer after 63 = %d, want 64", got)
	}
}

// TestTraceReplayDeterminism: replaying a recorded trace on a fresh
// controller reproduces the execution exactly — same fingerprint, same step
// counts, same crash pattern. This is the property every search strategy
// stands on.
func TestTraceReplayDeterminism(t *testing.T) {
	const n = 5
	body := func() Body {
		var a, b shmem.Reg
		return func(p *shmem.Proc) {
			for i := 0; i < 3; i++ {
				p.Write(&a, p.Name())
				if p.Read(&a) == p.Name() {
					p.Write(&b, p.Name())
				}
				p.Read(&b)
			}
		}
	}

	// Drive once under a seeded random policy with crash injection,
	// recording the trace.
	c := NewController(n, nil, body())
	c.EnableTrace()
	policy := NewRandom(11)
	plan := RandomCrashes(13, 0.05, n/2)
	for c.PendingCount() > 0 {
		pid := policy.Next(c)
		if plan.ShouldCrash(pid, c.Proc(pid).Steps(), c.Intent(pid)) {
			c.Crash(pid)
			continue
		}
		c.Step(pid)
	}
	orig := c.Result()
	trace := c.Trace()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}

	// Replay on a fresh controller + fresh registers.
	rc := NewController(n, nil, body())
	rc.EnableTrace()
	if err := rc.ApplyTrace(trace); err != nil {
		rc.Abort()
		t.Fatalf("replay diverged: %v", err)
	}
	if rc.PendingCount() != 0 {
		rc.Abort()
		t.Fatalf("replayed execution still has %d pending processes", rc.PendingCount())
	}
	res := rc.Result()
	if res.Fingerprint != orig.Fingerprint {
		t.Fatalf("replay fingerprint %#x != original %#x", res.Fingerprint, orig.Fingerprint)
	}
	for pid := range orig.Steps {
		if res.Steps[pid] != orig.Steps[pid] || res.Crashed[pid] != orig.Crashed[pid] {
			t.Fatalf("process %d diverged: steps %d/%d crashed %v/%v",
				pid, res.Steps[pid], orig.Steps[pid], res.Crashed[pid], orig.Crashed[pid])
		}
	}
	// And the replayed trace is the trace.
	back := rc.Trace()
	if len(back) != len(trace) {
		t.Fatalf("replayed trace has %d events, original %d", len(back), len(trace))
	}
	for i := range back {
		if back[i].Pid != trace[i].Pid || back[i].Op != trace[i].Op || back[i].Crash != trace[i].Crash {
			t.Fatalf("event %d diverged: %s vs %s", i, back[i], trace[i])
		}
	}
}

// TestReplayPrefixReconstructsMidState: replaying a strict prefix leaves the
// controller at the exact decision point, ready for a different
// continuation — the stateless-search primitive.
func TestReplayPrefixReconstructsMidState(t *testing.T) {
	const n = 3
	body := func() Body {
		var r shmem.Reg
		return func(p *shmem.Proc) {
			p.Write(&r, p.Name())
			p.Read(&r)
		}
	}
	c := NewController(n, nil, body())
	c.EnableTrace()
	rr := &RoundRobin{}
	for c.PendingCount() > 0 {
		c.Step(rr.Next(c))
	}
	full := c.Trace()

	half := full[:len(full)/2]
	rc := NewController(n, nil, body())
	defer rc.Abort()
	rc.EnableTrace()
	if err := rc.ApplyTrace(half); err != nil {
		t.Fatalf("prefix replay diverged: %v", err)
	}
	if got := len(rc.Trace()); got != len(half) {
		t.Fatalf("prefix replay recorded %d events, want %d", got, len(half))
	}
	// The pending set at the prefix point must match what the original
	// execution's next event implies: its pid is pending with that op.
	next := full[len(half)]
	if NextBit(rc.Pending(), next.Pid-1) != next.Pid {
		t.Fatalf("process %d not pending after prefix replay", next.Pid)
	}
	if got := rc.Intent(next.Pid).Kind; got != next.Op {
		t.Fatalf("process %d posted %s after prefix, original execution had %s", next.Pid, got, next.Op)
	}

	// A malformed prefix (granting a finished process) reports divergence.
	bad := append(append(Trace(nil), full...), full[len(full)-1])
	bc := NewController(n, nil, body())
	defer bc.Abort()
	if err := bc.ApplyTrace(bad); err == nil {
		t.Fatal("replay accepted a grant to a finished process")
	}
}
