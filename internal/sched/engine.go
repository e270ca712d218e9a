package sched

import (
	"fmt"

	"repro/internal/shmem"
)

// Engine is the driving seam between the decision layer (policies, crash
// plans, trace replay, the explore strategies' sequential driver) and an
// execution engine. Two engines implement it: the goroutine-backed
// *Controller in this package — the conformance oracle — and the vectorized
// step-function engine (internal/vexec), which runs the same algorithms as
// explicit frame automata with no goroutines, no parking and no stacks.
//
// The contract is bit-identity: for the same bodies, the same decision
// sequence issued through this interface must produce the same Result, the
// same Fingerprint (both engines fold decisions through FoldGrant) and — for
// scalar-register algorithms — the same StateHash on either engine. The
// differential tests in internal/vexec enforce this over the conformance
// table, randomized traces and the fault models.
//
// An Engine is not safe for concurrent driving: exactly one goroutine may
// issue grants at a time, mirroring Controller's rule.
type Engine interface {
	// Observation surface: what a policy may inspect at a decision point.
	N() int
	PendingCount() int
	PendingInto(buf []int) []int
	NextPending(after int) int
	NextPendingKind(after int, kind shmem.OpKind) int
	Intent(pid int) shmem.Intent
	Proc(pid int) *shmem.Proc
	Done(pid int) bool
	Crashed(pid int) bool
	Fingerprint() uint64
	Grants() int64
	Model() shmem.Model

	// Weak-register surface (empty/zero under the atomic model).
	StaleVals(pid int, buf []int64) []int64
	StaleCount(pid int) int

	// Crash-recovery surface (false/zero under fail-stop).
	CanRestart(pid int) bool
	Restarts() int

	// Grant operations: the scheduling decisions themselves.
	Step(pid int)
	StepN(pid, k int)
	StepStale(pid, idx int)
	Crash(pid int)
	Restart(pid int)

	// Result summarizes the execution at the current decision point.
	Result() Result
}

// Controller is the reference Engine.
var _ Engine = (*Controller)(nil)

// ExecState is an opaque captured execution state: the value returned by a
// StateEngine's Checkpoint and accepted by its Restore. Each engine has its
// own concrete representation (the goroutine engine's Snapshot watermarks
// its undo log; the vectorized engine's snapshot is a plain struct copy of
// register cells and lane positions), and a capture is only meaningful to
// the engine that produced it — Restore panics on a foreign state.
type ExecState interface {
	execState()
}

// StateTag marks a concrete snapshot type as an ExecState: engines outside
// this package embed it in their snapshot struct to satisfy the sealed
// interface (the marker method itself stays unexported so arbitrary values
// cannot masquerade as captured states).
type StateTag struct{}

func (StateTag) execState() {}

// SearchEngine is the surface the exploration layers (internal/explore,
// internal/adversary, internal/model) drive: everything a Policy may use,
// plus the capability knobs and replay machinery a search harness arms
// between runs. Both engines implement it.
type SearchEngine interface {
	Engine
	SetModel(m shmem.Model)
	EnableTrace()
	Trace() Trace
	TraceInto(buf Trace) Trace
	// TraceLen returns the number of grant events currently recorded — the
	// event cursor incremental layers above the engine (the source-DPOR
	// happens-before relation) align their suffix watermarks against. A
	// StateEngine's Restore truncates the recorded trace to the snapshot's
	// watermark, so TraceLen after a restore reports the checkpoint-time
	// length.
	TraceLen() int
	ApplyTrace(prefix Trace) error
	Abort()
}

// StateReleaser is optionally implemented by state engines that recycle
// checkpoint storage: a search hands back a capture it will never Restore to
// again (its tree node is fully explored) and the engine may reuse the
// allocation for a later Checkpoint. Releasing is strictly an optimization —
// captures are garbage-collected like anything else without it.
type StateReleaser interface {
	ReleaseState(s ExecState)
}

// StateEngine is a SearchEngine whose execution state is first-class:
// checkpoint/restore with canonical state hashing, the contract the
// stateful source-DPOR walk is built on (PR 5 semantics on either engine).
// Restore rewinds to a state captured earlier on the current branch and
// re-executes no grants. It calls reset(pid) before it re-runs process pid
// from its read log, and only then: the vectorized engine leaves every lane
// that did not move since the capture untouched, so reset must clear pid's
// body-external capture only. StateHash at equal decision points is
// bit-identical across engines for scalar-register algorithms.
type StateEngine interface {
	SearchEngine
	EnableState()
	StateEnabled() bool
	StateHash() [2]uint64
	Checkpoint() ExecState
	Restore(s ExecState, reset func(pid int))
}

// The goroutine engine implements the full state-capable surface.
var _ StateEngine = (*Controller)(nil)

// CheckStaleChoice pins the StalePolicy index convention shared by every
// driver (DriveEngine here, policyChoice in internal/explore): PickStale
// returns 0 for the fresh read or s in 1..count for stale choice s-1. Both
// boundary values are legal — 0 must read fresh and count must select the
// last stale index — and anything outside [0..count] is a policy bug
// reported by name rather than surfacing as StepStale's internal index
// panic (or, worse, being silently folded to a fresh read).
func CheckStaleChoice(s, count int) {
	if s < 0 || s > count {
		panic(fmt.Sprintf("sched: StalePolicy.PickStale returned %d with %d stale choices; the convention is 0 for the fresh read or 1..count selecting stale index s-1", s, count))
	}
}

// DriveEngine drives any Engine with policy (and optional crash plan) until
// every process has finished or crashed, then returns the execution summary.
// It is the single decision loop shared by both engines — Controller.Run
// delegates here — so the decision order (restart offers, crash veto, stale
// consultation, grant) is identical by construction, which is what makes
// cross-engine fingerprints comparable.
//
// The pending slice passed to the policy is reused between decisions;
// policies must not retain it. Policies that also implement IterPolicy are
// driven through the pending-set iterator and never receive a slice at all,
// making each decision O(1) instead of O(pending).
func DriveEngine(e Engine, policy Policy, plan CrashPlan) Result {
	ip, iter := policy.(IterPolicy)
	sp, hasStale := policy.(StalePolicy)
	hasStale = hasStale && e.Model().Regs != shmem.RegAtomic
	rp, hasRestart := plan.(RestartPlan)
	hasRestart = hasRestart && e.Model().Recovery
	n := e.N()
	var pendBuf []int
	if !iter {
		pendBuf = make([]int, 0, n)
	}
	for {
		if hasRestart {
			// Offer every crashed process back to the plan before each
			// decision; a restart re-enters the pending set, so the loop
			// keeps going until both the pending set and the plan's appetite
			// for restarts are exhausted.
			for pid := 0; pid < n; pid++ {
				if e.CanRestart(pid) && rp.ShouldRestart(pid, e.Proc(pid).Restarts()) {
					e.Restart(pid)
				}
			}
		}
		if e.PendingCount() == 0 {
			break
		}
		var pid int
		if iter {
			pid = ip.NextIter(e)
		} else {
			pid = policy.Next(e, e.PendingInto(pendBuf))
		}
		if plan != nil && plan.ShouldCrash(pid, e.Proc(pid).Steps(), e.Intent(pid)) {
			e.Crash(pid)
			continue
		}
		if hasStale {
			if k := e.StaleCount(pid); k > 0 {
				s := sp.PickStale(e, pid, k)
				CheckStaleChoice(s, k)
				if s > 0 {
					e.StepStale(pid, s-1)
					continue
				}
			}
		}
		e.Step(pid)
	}
	return e.Result()
}

// ApplyTraceTo re-applies a recorded grant sequence to a freshly constructed
// engine, reconstructing the execution state at the end of the prefix. It is
// the engine-generic form of Controller.ApplyTrace (which delegates here):
// the bodies must be deterministic; each event's process must be pending
// with the recorded operation kind posted, otherwise the replay has diverged
// and an error is returned with the engine left mid-execution. Register
// identities are per-instance and deliberately not compared.
func ApplyTraceTo(e Engine, prefix Trace) error {
	for i, ev := range prefix {
		if ev.Restart {
			if ev.Pid < 0 || ev.Pid >= e.N() || !e.Crashed(ev.Pid) {
				return fmt.Errorf("sched: trace event %d (%s) restarts a non-crashed process", i, ev)
			}
			e.Restart(ev.Pid)
			continue
		}
		if ev.Pid < 0 || ev.Pid >= e.N() || e.NextPending(ev.Pid-1) != ev.Pid {
			return fmt.Errorf("sched: trace event %d (%s) grants a non-pending process", i, ev)
		}
		if got := e.Intent(ev.Pid).Kind; got != ev.Op {
			return fmt.Errorf("sched: replay diverged at event %d: process %d posted %s, trace recorded %s (non-deterministic body?)", i, ev.Pid, got, ev.Op)
		}
		switch {
		case ev.Crash:
			e.Crash(ev.Pid)
		case ev.Stale > 0:
			if n := e.StaleCount(ev.Pid); ev.Stale > n {
				return fmt.Errorf("sched: replay diverged at event %d: stale choice %d of %d (model mismatch or non-deterministic body?)", i, ev.Stale-1, n)
			}
			e.StepStale(ev.Pid, ev.Stale-1)
		case ev.K > 1:
			e.StepN(ev.Pid, ev.K)
		default:
			e.Step(ev.Pid)
		}
	}
	return nil
}
