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
// sequence issued through this interface must produce the same Result and
// the same Fingerprint. Half of it holds by construction: both engines embed
// a Ledger, which implements the whole observation surface below and
// records every decision (checks, FoldGrant, stale windows, trace, restart
// budget), and both are driven by DriveEngine and ApplyTraceTo. The other
// half is how each engine runs a granted process to its next access; the
// differential tests in internal/vexec enforce it over the conformance
// table, randomized traces and the fault models.
//
// Execution state as a value — Checkpoint and Restore — belongs to the
// vectorized engine alone (vexec.Exec); the Controller stays a plain
// oracle. The restore tests check a restored vexec engine against a fresh
// engine driven through the same trace prefix with ApplyTraceTo.
//
// An Engine is not safe for concurrent driving: exactly one goroutine may
// issue grants at a time.
type Engine interface {
	// Observation surface: what a policy may inspect at a decision point.
	N() int
	PendingCount() int
	// Pending and PendingReads are live bit-word views of engine state (see
	// NextBit, NthBit, HasBit): bit pid of Pending is set exactly when pid
	// has a posted intent, and of PendingReads when that intent is an
	// OpRead, so the pending writers are Pending &^ PendingReads. Each
	// slice has one word per 64 pids and lives as long as the engine:
	// every grant, Reset and Restore updates it in place. Callers must
	// never write it.
	Pending() []uint64
	PendingReads() []uint64
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
	StepStale(pid, idx int)
	Crash(pid int)
	Restart(pid int)

	// Relaunch re-runs the engine's root on a finished or crashed pid as a
	// fresh logical process. It is a harness action, not a decision: nothing
	// goes into the fingerprint or the trace.
	Relaunch(pid int)

	// Result summarizes the execution at the current decision point.
	Result() Result
}

// Controller is the reference Engine.
var _ SearchEngine = (*Controller)(nil)

// SearchEngine is the surface the exploration layers (internal/explore,
// internal/adversary, internal/model) drive: everything a Policy may use,
// plus the capability knobs and replay machinery a search harness arms
// between runs. Both engines implement it; the stateful source-DPOR walk
// additionally needs checkpoint/restore and so drives *vexec.Exec.
type SearchEngine interface {
	Engine
	SetModel(m shmem.Model)
	EnableTrace()
	Trace() Trace
	TraceInto(buf Trace) Trace
	ApplyTrace(prefix Trace) error
	Abort()
}

// checkStaleChoice pins the StalePolicy index convention of DriveEngine, the
// one driver that asks a StalePolicy: PickStale returns 0 for the fresh read
// or s in 1..count for stale choice s-1. Both boundary values are legal — 0
// must read fresh and count must select the last stale index — and anything
// outside [0..count] is a policy bug reported by name rather than surfacing
// as StepStale's internal index panic (or, worse, being silently folded to a
// fresh read).
func checkStaleChoice(s, count int) {
	if s < 0 || s > count {
		panic(fmt.Sprintf("sched: StalePolicy.PickStale returned %d with %d stale choices; the convention is 0 for the fresh read or 1..count selecting stale index s-1", s, count))
	}
}

// DriveEngine drives any Engine with policy (and optional crash plan) until
// every process has finished or crashed, then returns the execution summary.
// It is the single decision loop shared by both engines — Ledger.Run, the
// Run of each, delegates here — so the decision order (restart offers, crash veto, stale
// consultation, grant) is identical by construction, which is what makes
// cross-engine fingerprints comparable.
func DriveEngine(e Engine, policy Policy, plan CrashPlan) Result {
	sp, hasStale := policy.(StalePolicy)
	hasStale = hasStale && e.Model().Regs != shmem.RegAtomic
	rp, hasRestart := plan.(RestartPlan)
	hasRestart = hasRestart && e.Model().Recovery
	n := e.N()
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
		pid := policy.Next(e)
		if plan != nil && plan.ShouldCrash(pid, e.Proc(pid).Steps(), e.Intent(pid)) {
			e.Crash(pid)
			continue
		}
		if hasStale {
			if k := e.StaleCount(pid); k > 0 {
				s := sp.PickStale(e, pid, k)
				checkStaleChoice(s, k)
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
// the engine-generic form of Ledger.ApplyTrace (which delegates here):
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
		if ev.Pid < 0 || ev.Pid >= e.N() || !HasBit(e.Pending(), ev.Pid) {
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
		default:
			e.Step(ev.Pid)
		}
	}
	return nil
}
