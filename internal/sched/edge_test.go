package sched

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/shmem"
)

// TestStepNCrossesCrashBoundary covers a process that crashes itself in the
// middle of its body (the body raises shmem.Crash after three granted
// steps): the process must be marked crashed with exactly those steps
// charged, and the rest of the population unaffected.
func TestStepNCrossesCrashBoundary(t *testing.T) {
	var r shmem.Reg
	c := NewController(2, nil, func(p *shmem.Proc) {
		if p.ID() == 0 {
			p.Read(&r)
			p.Read(&r)
			p.Read(&r)
			panic(shmem.Crash{})
		}
		p.Read(&r)
	})
	for i := 0; i < 3; i++ {
		c.Step(0) // the third read's return runs into the self-raised crash
	}
	if !c.Crashed(0) {
		t.Fatal("process 0 not marked crashed after its mid-body crash")
	}
	if got := c.Proc(0).Steps(); got != 3 {
		t.Fatalf("process 0 took %d steps, want 3", got)
	}
	if c.PendingCount() != 1 {
		t.Fatalf("PendingCount %d, want 1 (process 1 untouched)", c.PendingCount())
	}
	c.Step(1)
	if !c.Done(1) {
		t.Fatal("process 1 did not finish after the crash next door")
	}
}

// TestCrashAfterPartialStepN drives a process through part of its body one
// step at a time and then crash-injects it at the next posted operation: the
// posted write must not execute.
func TestCrashAfterPartialStepN(t *testing.T) {
	var a, b shmem.Reg
	c := NewController(1, nil, func(p *shmem.Proc) {
		p.Read(&a)
		p.Read(&a)
		p.Write(&b, 42)
	})
	c.Step(0)
	c.Step(0) // the two reads are done; the write intent is now posted
	if in := c.Intent(0); in.Kind != shmem.OpWrite {
		t.Fatalf("posted intent after the reads = %v, want write", in.Kind)
	}
	c.Crash(0)
	if !c.Crashed(0) {
		t.Fatal("process not crashed")
	}
	if b.Peek() != shmem.Null {
		t.Fatalf("crashed write landed: %d", b.Peek())
	}
	if got := c.Proc(0).Steps(); got != 2 {
		t.Fatalf("crashed process reports %d steps, want 2", got)
	}
}

// TestAbortRacingParallelRuns exercises Abort on partially driven
// controllers while independent runs on their own goroutines churn on the
// same scheduler machinery concurrently — the cleanup path must not
// interfere with independent runs (run under -race in CI).
func TestAbortRacingParallelRuns(t *testing.T) {
	const runs = 16
	var wg sync.WaitGroup
	wg.Add(runs)
	for run := 0; run < runs; run++ {
		go func(run int) {
			defer wg.Done()
			var r shmem.Reg
			res := Run(4, nil, NewRandom(uint64(run)+1), nil, func(p *shmem.Proc) {
				for i := 0; i < 32; i++ {
					p.Read(&r)
				}
			})
			if res.Err != nil {
				t.Errorf("parallel run %d: %v", run, res.Err)
			}
			if res.TotalSteps() != 4*32 {
				t.Errorf("parallel run %d: %d steps, want %d", run, res.TotalSteps(), 4*32)
			}
		}(run)
	}
	for i := 0; i < 8; i++ {
		var r shmem.Reg
		c := NewController(6, nil, func(p *shmem.Proc) {
			for j := 0; j < 100; j++ {
				p.Read(&r)
			}
		})
		for s := 0; s < 5; s++ {
			c.Step(NextBit(c.Pending(), -1))
		}
		c.Abort()
		for pid := 0; pid < 6; pid++ {
			if !c.Crashed(pid) {
				t.Fatalf("iteration %d: process %d not crashed after Abort", i, pid)
			}
		}
	}
	wg.Wait()
}

// TestNextPendingWraparound pins NextBit's boundary behavior over a
// Controller's pending words: negative after clamps to the start, after at or
// beyond the last pid yields -1, and word boundaries (pid 63/64) are crossed
// correctly.
func TestNextPendingWraparound(t *testing.T) {
	const n = 130 // three bitmap words, last one partial
	var r shmem.Reg
	c := NewController(n, nil, func(p *shmem.Proc) { p.Read(&r) })
	defer c.Abort()

	if got := NextBit(c.Pending(), -1); got != 0 {
		t.Fatalf("NextBit(Pending, -1) = %d, want 0", got)
	}
	if got := NextBit(c.Pending(), -100); got != 0 {
		t.Fatalf("NextBit(Pending, -100) = %d, want 0 (negative after clamps)", got)
	}
	if got := NextBit(c.Pending(), n-1); got != -1 {
		t.Fatalf("NextBit(Pending, n-1) = %d, want -1", got)
	}
	if got := NextBit(c.Pending(), n+50); got != -1 {
		t.Fatalf("NextBit(Pending, beyond n) = %d, want -1", got)
	}
	if got := NextBit(c.Pending(), 62); got != 63 {
		t.Fatalf("NextBit(Pending, 62) = %d, want 63", got)
	}
	if got := NextBit(c.Pending(), 63); got != 64 {
		t.Fatalf("NextBit(Pending, 63) = %d, want 64 (word boundary)", got)
	}

	// Retire pids 64..129 and verify iteration from a now-empty tail wraps
	// to -1, then that a RoundRobin iterator restarts from pid 0.
	for pid := 64; pid < n; pid++ {
		c.Step(pid)
	}
	if got := NextBit(c.Pending(), 63); got != -1 {
		t.Fatalf("NextBit(Pending, 63) after retiring tail = %d, want -1", got)
	}
	rr := &RoundRobin{next: 64}
	if got := rr.Next(c); got != 0 {
		t.Fatalf("RoundRobin wraparound returned %d, want 0", got)
	}

	// Retire everything; both iterators must report exhaustion.
	for pid := NextBit(c.Pending(), -1); pid >= 0; pid = NextBit(c.Pending(), -1) {
		c.Step(pid)
	}
	if got := NextBit(c.Pending(), -1); got != -1 {
		t.Fatalf("NextBit on an empty set = %d, want -1", got)
	}
	if got := (&RoundRobin{}).Next(c); got != -1 {
		t.Fatalf("RoundRobin on empty set = %d, want -1", got)
	}
}

// TestStepDonePidPanicsClearly pins the failure mode for a policy that
// returns an already-finished pid: a panic naming the pid and its phase, so
// the policy author sees immediately what went wrong.
func TestStepDonePidPanicsClearly(t *testing.T) {
	var r shmem.Reg
	c := NewController(2, nil, func(p *shmem.Proc) { p.Read(&r) })
	defer c.Abort()
	c.Step(0)
	if !c.Done(0) {
		t.Fatal("process 0 should be done")
	}
	assertPanics(t, func() { c.Step(0) }, "non-pending process 0", "done")
	assertPanics(t, func() { c.Crash(0) }, "non-pending process", "done")
	assertPanics(t, func() { c.Intent(0) }, "non-pending process", "done")
	assertPanics(t, func() { c.Step(-1) }, "outside")
	assertPanics(t, func() { c.Step(2) }, "outside")
}

// TestStepCrashedPidPanicsClearly is the same contract for a crashed pid.
func TestStepCrashedPidPanicsClearly(t *testing.T) {
	var r shmem.Reg
	c := NewController(2, nil, func(p *shmem.Proc) { p.Read(&r) })
	defer c.Abort()
	c.Crash(1)
	assertPanics(t, func() { c.Step(1) }, "non-pending process 1", "crashed")
}

func assertPanics(t *testing.T, fn func(), wantSubstrings ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T, want string", r)
		}
		for _, want := range wantSubstrings {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	fn()
}

// TestFingerprintDistinguishesSchedules: different grant orders over the
// same body produce different fingerprints, identical orders identical
// ones, and crashes perturb the hash.
func TestFingerprintDistinguishesSchedules(t *testing.T) {
	run := func(policySeed uint64, plan CrashPlan) uint64 {
		var r shmem.Reg
		res := Run(4, nil, NewRandom(policySeed), plan, func(p *shmem.Proc) {
			for i := 0; i < 8; i++ {
				p.Read(&r)
			}
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Fingerprint
	}
	a1, a2 := run(1, nil), run(1, nil)
	if a1 != a2 {
		t.Fatalf("same schedule, different fingerprints: %#x vs %#x", a1, a2)
	}
	if b := run(2, nil); b == a1 {
		t.Fatalf("different schedules share fingerprint %#x", b)
	}
	if c := run(1, CrashAllBut(0)); c == a1 {
		t.Fatal("crash injection did not perturb the fingerprint")
	}
	if a1 == 0 {
		t.Fatal("driven execution has zero fingerprint")
	}
}

// TestDriverParkedWakeups drives both wakeups of a parked driver on purpose:
// a process that posts its next intent (gate.Step), and one that finishes
// (runProc), as the last active process while the driver is parked on idle.
// The body moves on only after it sees driverParked, so the driver has run
// out of quiesce yields and parked; without that wait these branches run only
// when the driver happens to park.
func TestDriverParkedWakeups(t *testing.T) {
	var ctrl atomic.Pointer[Controller]
	waitParked := func() {
		for !ctrl.Load().driverParked.Load() {
			runtime.Gosched()
		}
	}
	var r shmem.Reg
	c := NewController(1, nil, func(p *shmem.Proc) {
		p.Read(&r)
		waitParked()
		p.Read(&r) // posts with the driver parked: gate.Step signals idle
		waitParked()
		// returns with the driver parked: runProc signals idle
	})
	defer c.Abort()
	ctrl.Store(c)
	c.Step(0)
	if c.PendingCount() != 1 {
		t.Fatalf("after the first grant: %d pending, want the second read", c.PendingCount())
	}
	c.Step(0)
	if !c.Done(0) || c.PendingCount() != 0 {
		t.Fatalf("after the second grant: done=%v pending=%d, want a finished process", c.Done(0), c.PendingCount())
	}
}
