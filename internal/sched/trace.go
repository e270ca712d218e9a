package sched

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/xrand"
)

// TraceEvent records one scheduler decision: which process was granted one
// step (or crashed) and the operation it had posted at that moment. A Trace is the complete adversary transcript of an execution —
// for a fixed deterministic body it reconstructs the execution exactly, which
// is what search strategies (DPOR, sleep sets, the exhaustive model checker)
// replay prefixes of.
type TraceEvent struct {
	Pid   int
	Op    shmem.OpKind // the posted operation kind at grant time
	Reg   any          // the posted operation's register identity
	Crash bool         // the grant was a crash: the posted op never executed

	// Fault-model decisions (zero under the default model). Stale > 0 marks a
	// weak-register read grant that returned stale choice Stale-1 (see
	// Ledger.StepStale); Restart marks a crash-recovery respawn of a
	// crashed process (Op and Reg are zero — a restart grants no
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
	return fmt.Sprintf("step(%d@%s)", e.Pid, e.Op)
}

// Trace is the grant sequence of one driven execution, in decision order.
type Trace []TraceEvent

// FoldGrant mixes one scheduling decision into a schedule fingerprint:
// (pid, posted operation kind, crash bit, staleness choice, restart bit) per
// grant uniquely identifies the interleaving for a fixed body. pid and the
// event word are mixed separately, and the fault-model bits occupy word
// positions no default-model event can reach, so every pre-knob fingerprint
// is unchanged. Every step, stale step and crash sets bit 8 and a restart
// does not, which the committed fingerprint pins, pinned schedules and
// reproducers depend on. It is the single fingerprint definition shared by
// the controller's incremental fold and any alternative Engine
// (internal/vexec): engines must produce bit-identical fingerprints for
// identical decision sequences, which the differential tests enforce.
func FoldGrant(fp uint64, pid int, kind shmem.OpKind, crash bool, stale int, restart bool) uint64 {
	ev := uint64(kind) << 1
	if crash {
		ev |= 1
	}
	if restart {
		ev |= 1 << 62
	} else {
		ev |= 1 << 8
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
