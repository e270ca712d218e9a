package sched

import (
	"slices"
	"testing"

	"repro/internal/shmem"
)

// TestLedgerMarkRewind plays the engine for a bare ledger (posting intents,
// recording grants and exits, writing the register a granted write targets)
// and checks that Rewind puts back what Mark saved: fingerprint, grant
// count, trace, phases, errors, the pending and reader words rebuilt from
// the intents, and the stale windows under weak registers. ResetGateless
// then returns the ledger to a fresh one's state.
func TestLedgerMarkRewind(t *testing.T) {
	var a, b shmem.Reg
	l := NewLedger(3, nil, nil, nil, nil)
	l.SetModel(shmem.Model{Regs: shmem.RegRegular})
	l.EnableTrace()
	post := func(pid int, k shmem.OpKind, r *shmem.Reg) {
		*l.IntentSlot(pid) = shmem.Intent{Kind: k, Reg: r}
		l.Post(pid)
	}
	post(0, shmem.OpWrite, &a)
	post(1, shmem.OpRead, &a)
	post(2, shmem.OpRead, &b)
	var root LedgerMark
	l.Mark(&root)

	l.RecordGrant(0, false, 0)
	l.Proc(0).Write(&a, 5)
	l.Exit(0, nil)
	var mid LedgerMark
	l.Mark(&mid)
	fp := l.Fingerprint()
	if mid.TraceLen() != 1 || mid.Phase(0) != PhaseDone || mid.Phase(1) != PhasePending {
		t.Fatalf("mark: trace %d, phases %s/%s, want 1, done/pending", mid.TraceLen(), mid.Phase(0), mid.Phase(1))
	}
	if got := l.StaleVals(1, nil); !slices.Equal(got, []int64{0}) {
		t.Fatalf("stale choices of the overlapped read: %v, want [0]", got)
	}

	l.RecordGrant(2, true, 0)
	l.Exit(2, shmem.Crash{})
	l.RecordGrant(1, false, 1)
	l.Exit(1, "boom")
	if l.Result().Err == nil || l.PendingCount() != 0 {
		t.Fatalf("after the panic: err %v, %d pending; want an error and none", l.Result().Err, l.PendingCount())
	}

	l.Rewind(&mid)
	if l.Fingerprint() != fp || l.Grants() != 1 || l.TraceLen() != 1 {
		t.Fatalf("rewound: fingerprint %#x grants %d trace %d, want %#x 1 1", l.Fingerprint(), l.Grants(), l.TraceLen(), fp)
	}
	if !l.Done(0) || l.Phase(1) != PhasePending || l.Phase(2) != PhasePending || l.Result().Err != nil {
		t.Fatalf("rewound: phases %s/%s/%s err %v, want done/pending/pending and no error", l.Phase(0), l.Phase(1), l.Phase(2), l.Result().Err)
	}
	if l.Pending()[0] != 0b110 || l.PendingReads()[0] != 0b110 || l.PendingCount() != 2 {
		t.Fatalf("rewound: pending %b, readers %b, count %d; want 110, 110, 2", l.Pending()[0], l.PendingReads()[0], l.PendingCount())
	}
	if got := l.StaleVals(1, nil); !slices.Equal(got, []int64{0}) {
		t.Fatalf("rewound stale choices: %v, want [0]", got)
	}

	l.Rewind(&root)
	if l.Grants() != 0 || l.TraceLen() != 0 || l.PendingCount() != 3 || l.StaleCount(1) != 0 {
		t.Fatalf("rewound to the root: grants %d trace %d pending %d stale %d, want 0 0 3 0", l.Grants(), l.TraceLen(), l.PendingCount(), l.StaleCount(1))
	}

	l.ResetGateless([]int64{7, 8, 9})
	if l.PendingCount() != 0 || l.Phase(0) != PhaseRunning || !l.Model().Atomic() || l.Proc(0).Steps() != 0 || l.Proc(1).Name() != 8 {
		t.Fatalf("reset: pending %d phase %s model %+v steps %d name %d", l.PendingCount(), l.Phase(0), l.Model(), l.Proc(0).Steps(), l.Proc(1).Name())
	}
	post(0, shmem.OpWrite, &a)
	l.RecordGrant(0, false, 0)
	if l.TraceLen() != 0 {
		t.Fatalf("reset left tracing on: %d events recorded", l.TraceLen())
	}
}
