package sched

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/xrand"
)

// TraceEvent records one scheduler decision: which process was granted (or
// crashed), the operation it had posted at that moment, and the run length of
// the grant. A Trace is the complete adversary transcript of an execution —
// for a fixed deterministic body it reconstructs the execution exactly, which
// is what search strategies (DPOR, sleep sets, the exhaustive model checker)
// replay prefixes of.
type TraceEvent struct {
	Pid   int
	Op    shmem.OpKind // the posted operation kind at grant time
	Reg   any          // the posted operation's register identity
	K     int          // run length granted (1 for Step, k for StepN)
	Crash bool         // the grant was a crash: the posted op never executed

	// Fault-model decisions (zero under the default model). Stale > 0 marks a
	// weak-register read grant that returned stale choice Stale-1 (see
	// Controller.StepStale); Restart marks a crash-recovery respawn of a
	// crashed process (Op, Reg and K are zero — a restart grants no
	// operation).
	Stale   int
	Restart bool
}

// Intent returns the posted operation the event granted (or crashed).
func (e TraceEvent) Intent() shmem.Intent { return shmem.Intent{Kind: e.Op, Reg: e.Reg} }

// Commutes reports whether two trace events are independent: swapping their
// order in a schedule yields an equivalent execution. Events of the same
// process never commute (program order); a crash commutes with any event of
// another process (it touches no register); otherwise the posted operations
// must commute (distinct registers, or read/read on the same register).
func (e TraceEvent) Commutes(f TraceEvent) bool {
	if e.Pid == f.Pid {
		return false
	}
	if e.Crash || f.Crash || e.Restart || f.Restart {
		// Crashes and restarts touch no register: a crash discards the posted
		// op, and a restart only resets another process's local state. Stale
		// choices need no extra case — a stale read targets the same register
		// as its fresh form, so the read/write dependence that could reorder
		// its window is already non-commuting.
		return true
	}
	return e.Intent().Commutes(f.Intent())
}

// String renders the event for diagnostics and shrunk-schedule dumps.
func (e TraceEvent) String() string {
	if e.Restart {
		return fmt.Sprintf("restart(%d)", e.Pid)
	}
	if e.Crash {
		return fmt.Sprintf("crash(%d@%s)", e.Pid, e.Op)
	}
	if e.Stale > 0 {
		return fmt.Sprintf("step(%d@%s stale%d)", e.Pid, e.Op, e.Stale-1)
	}
	if e.K > 1 {
		return fmt.Sprintf("step(%d@%s x%d)", e.Pid, e.Op, e.K)
	}
	return fmt.Sprintf("step(%d@%s)", e.Pid, e.Op)
}

// Trace is the grant sequence of one driven execution, in decision order.
type Trace []TraceEvent

// FoldGrant mixes one scheduling decision into a schedule fingerprint:
// (pid, posted operation kind, run length, crash bit, staleness choice,
// restart bit) per grant uniquely identifies the interleaving for a fixed
// body. pid and the event word are mixed separately so no batch size can
// alias another pid's decision, and the fault-model bits occupy word
// positions no default-model event can reach, so every pre-knob fingerprint
// is unchanged. It is the single fingerprint definition shared by the
// controller's incremental fold and any alternative Engine (internal/vexec):
// engines must produce bit-identical fingerprints for identical decision
// sequences, which the differential tests enforce.
func FoldGrant(fp uint64, pid, k int, kind shmem.OpKind, crash bool, stale int, restart bool) uint64 {
	ev := uint64(k)<<8 | uint64(kind)<<1
	if crash {
		ev |= 1
	}
	if restart {
		ev |= 1 << 62
	}
	if stale > 0 {
		ev |= uint64(stale) << 48
	}
	return xrand.Mix(xrand.Mix(fp+1, uint64(pid)), ev)
}

// String renders the whole schedule on one line.
func (t Trace) String() string {
	s := ""
	for i, e := range t {
		if i > 0 {
			s += " "
		}
		s += e.String()
	}
	return s
}

// EnableTrace turns on grant recording: every subsequent Step/StepN/Crash
// appends a TraceEvent, retrievable via Trace. Any previously recorded events
// are discarded. Recording costs an amortized slice append per grant, so the
// zero-allocation benchmarks leave it off; search strategies always enable
// it.
func (c *Controller) EnableTrace() {
	c.tracing = true
	c.traceBuf = c.traceBuf[:0]
}

// Trace returns a copy of the grant sequence recorded since EnableTrace.
func (c *Controller) Trace() Trace {
	return append(Trace(nil), c.traceBuf...)
}

// TraceInto overwrites buf (reusing its storage) with the recorded grant
// sequence and returns it — the allocation-free form of Trace for drive
// loops that consume each execution's trace before the next one overwrites
// the buffer.
func (c *Controller) TraceInto(buf Trace) Trace {
	return append(buf[:0], c.traceBuf...)
}

// ApplyTrace re-applies a recorded grant sequence to a freshly constructed
// controller, reconstructing the execution state at the end of the prefix.
// The bodies must be deterministic (every algorithm in this repository is,
// given its seed): each event's process must be pending with the recorded
// operation kind posted, otherwise the replay has diverged and an error is
// returned with the controller left mid-execution (callers should Abort it).
// Register identities are per-instance and deliberately not compared.
// It is ApplyTraceTo over this controller — the replay loop lives in
// engine.go so both execution engines share it verbatim.
func (c *Controller) ApplyTrace(prefix Trace) error {
	return ApplyTraceTo(c, prefix)
}

// ReplayTrace constructs a controller over body and re-applies the grant
// prefix, returning the controller positioned at the first decision point
// after it. It is the reconstruction primitive of stateless search: a
// strategy that recorded a trace can rebuild the state at any prefix and
// explore a different continuation. On divergence the partially driven
// controller is aborted and an error returned.
func ReplayTrace(n int, names []int64, body Body, prefix Trace) (*Controller, error) {
	c := NewController(n, names, body)
	c.EnableTrace()
	if err := c.ApplyTrace(prefix); err != nil {
		c.Abort()
		return nil, err
	}
	return c, nil
}

// IntentsCommute reports whether the posted operations of two pending
// processes commute (see shmem.Intent.Commutes). It is the intent-graph edge
// predicate search strategies use to compute backtrack and sleep sets without
// knowing anything about the algorithm under test.
func (c *Controller) IntentsCommute(p, q int) bool {
	return c.Intent(p).Commutes(c.Intent(q))
}

// Result snapshots the execution summary at the current decision point. For
// a finished execution it equals what Run would have returned; search
// strategies that drive the controller grant by grant use it to close out an
// execution.
func (c *Controller) Result() Result { return c.result() }
