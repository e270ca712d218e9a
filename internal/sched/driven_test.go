package sched

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/shmem"
)

// TestRoundRobinStartsAtZero is the regression test for the seed bug where
// the zero-valued RoundRobin skipped pid 0 on the very first decision
// (last == 0 made the pid > last scan begin at 1). The exact grant order
// must be a clean cycle starting at pid 0.
func TestRoundRobinStartsAtZero(t *testing.T) {
	var log []int
	rr := &RoundRobin{}
	var r shmem.Reg
	res := Run(3, nil, PolicyFunc(func(c Engine) int {
		pid := rr.Next(c)
		log = append(log, pid)
		return pid
	}), nil, counterBody(&r))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// 3 processes x 2 steps each, strict cycle from pid 0.
	want := []int{0, 1, 2, 0, 1, 2}
	if len(log) != len(want) {
		t.Fatalf("grant order %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("grant order %v, want %v (first divergence at decision %d)", log, want, i)
		}
	}
}

// TestPendingIterator exercises the Pending words / PendingCount (and the
// Pending slice built on them) against an independent reference — the pids whose
// lifecycle phase is pending, each with a posted intent — across a driven
// execution, including pids beyond one bitmap word.
func TestPendingIterator(t *testing.T) {
	const n = 70 // spans two uint64 words
	var r shmem.Reg
	c := NewController(n, nil, counterBody(&r))
	defer c.Abort()
	buf := make([]int, 0, n)
	for steps := 0; c.PendingCount() > 0 && steps < 50; steps++ {
		var want []int
		for pid := 0; pid < n; pid++ {
			if c.phase[pid] == PhasePending {
				if c.Intent(pid).Kind == 0 {
					t.Fatalf("pending process %d has no posted intent", pid)
				}
				want = append(want, pid)
			}
		}
		var iter []int
		for pid := NextBit(c.Pending(), -1); pid >= 0; pid = NextBit(c.Pending(), pid) {
			iter = append(iter, pid)
		}
		if !slices.Equal(iter, want) {
			t.Fatalf("NextBit walk %v, want %v", iter, want)
		}
		if got := Pending(c, buf); !slices.Equal(got, want) {
			t.Fatalf("Pending %v, want %v", got, want)
		}
		if c.PendingCount() != len(want) {
			t.Fatalf("PendingCount %d, want %d", c.PendingCount(), len(want))
		}
		// Step an arbitrary (varying) pending process.
		c.Step(want[steps%len(want)])
	}
}

// TestStepNIntentAfterRun checks that after k single grants the process's
// published intent is its (k+1)-th operation.
func TestStepNIntentAfterRun(t *testing.T) {
	var a, b shmem.Reg
	c := NewController(1, nil, func(p *shmem.Proc) {
		for i := 0; i < 3; i++ {
			p.Read(&a)
		}
		p.Write(&b, 1)
	})
	defer c.Abort()
	for i := 0; i < 3; i++ {
		c.Step(0) // the three reads of a
	}
	in := c.Intent(0)
	if in.Kind != shmem.OpWrite || in.Reg != any(&b) {
		t.Fatalf("intent after three steps = %+v, want write of b", in)
	}
}

// TestAbortPartialExecution drives a few steps, aborts, and verifies every
// process is released and marked crashed with no result corruption — the
// cleanup path for partially driven executions.
func TestAbortPartialExecution(t *testing.T) {
	var r shmem.Reg
	c := NewController(5, nil, func(p *shmem.Proc) {
		for i := 0; i < 100; i++ {
			p.Read(&r)
		}
	})
	for i := 0; i < 7; i++ { // a few grants before aborting
		c.Step(NextBit(c.Pending(), -1))
	}
	c.Abort()
	if got := c.PendingCount(); got != 0 {
		t.Fatalf("%d processes still pending after Abort", got)
	}
	for pid := 0; pid < 5; pid++ {
		if !c.Crashed(pid) {
			t.Fatalf("process %d not crashed after Abort", pid)
		}
		if c.Done(pid) {
			t.Fatalf("process %d reported done after Abort", pid)
		}
	}
	// Abort is idempotent.
	c.Abort()
}

// TestAbortAfterSomeFinish aborts when part of the population already
// finished normally: only the stragglers are crashed.
func TestAbortAfterSomeFinish(t *testing.T) {
	var r shmem.Reg
	c := NewController(3, nil, func(p *shmem.Proc) {
		n := 1
		if p.ID() == 2 {
			n = 50
		}
		for i := 0; i < n; i++ {
			p.Read(&r)
		}
	})
	// Drive processes 0 and 1 to completion (1 step each).
	c.Step(0)
	c.Step(1)
	if !c.Done(0) || !c.Done(1) {
		t.Fatal("processes 0 and 1 should have finished")
	}
	c.Abort()
	if c.Crashed(0) || c.Crashed(1) {
		t.Fatal("finished processes must not be marked crashed by Abort")
	}
	if !c.Crashed(2) {
		t.Fatal("straggler not crashed by Abort")
	}
}

// TestRunFreeCrashRecovery covers RunFree's shmem.Crash recovery path: a
// body that raises the crash panic is recorded as crashed, not as an error,
// and the others are unaffected.
func TestRunFreeCrashRecovery(t *testing.T) {
	var r shmem.Reg
	res := RunFree(4, nil, func(p *shmem.Proc) {
		if p.ID()%2 == 0 {
			p.Read(&r)
			panic(shmem.Crash{})
		}
		p.Read(&r)
		p.Read(&r)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for pid := 0; pid < 4; pid++ {
		wantCrash := pid%2 == 0
		if res.Crashed[pid] != wantCrash {
			t.Fatalf("process %d crashed=%v, want %v", pid, res.Crashed[pid], wantCrash)
		}
		wantSteps := int64(2)
		if wantCrash {
			wantSteps = 1
		}
		if res.Steps[pid] != wantSteps {
			t.Fatalf("process %d steps=%d, want %d", pid, res.Steps[pid], wantSteps)
		}
	}
}

// TestRunFreeFirstPanicWins verifies Result.Err propagation when multiple
// bodies panic under free-running concurrency: some error is captured, it
// carries the panic payload, and the run still terminates. Run under -race
// in CI.
func TestRunFreeFirstPanicWins(t *testing.T) {
	res := RunFree(6, nil, func(p *shmem.Proc) {
		if p.ID() >= 3 {
			panic("multi boom")
		}
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "multi boom") {
		t.Fatalf("expected a captured panic mentioning 'multi boom', got %v", res.Err)
	}
}

// TestControllerPanicReleasesDriver checks Result.Err propagation through a
// driven execution when a body panics mid-run: the driver's Run loop must
// terminate and surface the error.
func TestControllerPanicReleasesDriver(t *testing.T) {
	var r shmem.Reg
	res := Run(3, nil, &RoundRobin{}, nil, func(p *shmem.Proc) {
		p.Read(&r)
		if p.ID() == 1 {
			panic("driven boom")
		}
		p.Read(&r)
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "driven boom") {
		t.Fatalf("expected captured panic, got %v", res.Err)
	}
	if res.Err != nil && !strings.Contains(res.Err.Error(), "process 1") {
		t.Fatalf("error should name process 1: %v", res.Err)
	}
}

// TestStepGrantPathZeroAlloc asserts the acceptance criterion directly: the
// steady-state decision+grant loop, single and batched, performs zero heap
// allocations, and so does the Pending slice view given a buffer of
// capacity n.
func TestStepGrantPathZeroAlloc(t *testing.T) {
	var r shmem.Reg
	c := NewController(8, nil, spinReader(&r))
	defer c.Abort()
	rr := &RoundRobin{}
	loop := testing.AllocsPerRun(500, func() {
		c.Step(rr.Next(c))
	})
	if loop != 0 {
		t.Fatalf("grant loop allocates %.1f/op, want 0", loop)
	}
	buf := make([]int, 0, 8)
	sliceLoop := testing.AllocsPerRun(500, func() {
		buf = Pending(c, buf)
		c.Step(buf[0])
	})
	if sliceLoop != 0 {
		t.Fatalf("Pending slice view allocates %.1f/op, want 0", sliceLoop)
	}
}
