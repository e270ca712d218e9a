package explore

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// TestTraceNeverOutrunsStack pins the frame/trace alignment invariant the
// happens-before layer's watermarks ride on (and that updateRaces' former
// clamp silently guarded): driving the fault models whose frames append no
// trace event (Halt) or extra events (stale variants, restarts) through
// complete walks must never trip the trace-outran-stack panic, in any race
// mode.
func TestTraceNeverOutrunsStack(t *testing.T) {
	models := map[string]shmem.Model{
		"recovery": {Recovery: true},
		"safe":     {Regs: shmem.RegSafe},
		"both":     {Regs: shmem.RegRegular, Recovery: true},
	}
	for name, m := range models {
		for _, mode := range []RaceAnalysis{RaceIncremental, RaceRebuild, RaceDifferential} {
			_, st := driveTreeModel(t, NewSourceDPOR(0, 2).SetRaceAnalysis(mode), 2, m, raceSystem(2))
			if !st.Complete {
				t.Fatalf("%s/%v: walk incomplete: %+v", name, mode, st)
			}
		}
	}
}

// TestSourceDPORWeakInitialsStale is the stale-window regression for
// addSource's covered check: under weak registers an initial sits in btStep
// through pickNext's whole stale-variant loop, and races against it must be
// treated as covered without losing any variant's subtree. Coverage is
// checked against the exhaustive sleep-set walker on the same model.
func TestSourceDPORWeakInitialsStale(t *testing.T) {
	const n = 2
	m := shmem.Model{Regs: shmem.RegSafe}
	want, wst := driveTreeModel(t, NewSleepSet(0, 1), n, m, raceSystem(n))
	got, st := driveTreeModel(t, NewSourceDPOR(0, 1).SetRaceAnalysis(RaceDifferential), n, m, raceSystem(n))
	if !st.Complete || !wst.Complete {
		t.Fatalf("incomplete walks: sourcedpor %+v, sleepset %+v", st, wst)
	}
	for o := range want {
		if !got[o] {
			t.Fatalf("outcome %q reached by sleep-set stale walk but not source-DPOR", o)
		}
	}
}

// TestSourceDPORWeakInitialsRecovery pins the no-enabled-initial fallback in
// addSource: a disabled weak initial requires the recovery model (the initial
// pid crashed at the frame and restarted before its contribution to the
// race), so this is the fixture family where `btStep |= enabled` actually
// fires — and coverage must still match the exhaustive walker.
func TestSourceDPORWeakInitialsRecovery(t *testing.T) {
	const n = 2
	m := shmem.Model{Recovery: true}
	want, wst := driveTreeModel(t, NewSleepSet(0, n), n, m, raceSystem(n))
	got, st := driveTreeModel(t, NewSourceDPOR(0, n).SetRaceAnalysis(RaceDifferential), n, m, raceSystem(n))
	if !st.Complete || !wst.Complete {
		t.Fatalf("incomplete walks: sourcedpor %+v, sleepset %+v", st, wst)
	}
	for o := range want {
		if !got[o] {
			t.Fatalf("outcome %q reached by sleep-set recovery walk but not source-DPOR", o)
		}
	}
}

// TestHBModesIdenticalWalks: all three race-analysis modes must drive
// bit-identical searches — same outcomes, same stats up to the work counters
// the modes define differently (RaceEvents) and wall-clock (RaceNs).
func TestHBModesIdenticalWalks(t *testing.T) {
	for name, mk := range map[string]func() system{
		"race":     raceSystem(3),
		"converge": convergeSystem(3, 2),
	} {
		var ref *Stats
		for _, mode := range []RaceAnalysis{RaceIncremental, RaceRebuild, RaceDifferential} {
			_, st := driveTree(t, NewSourceDPOR(0, 1).SetRaceAnalysis(mode), 3, mk)
			st.RaceEvents, st.RaceNs = 0, 0
			if ref == nil {
				r := st
				ref = &r
			} else if st != *ref {
				t.Fatalf("%s: %v mode diverged: %+v vs %+v", name, mode, st, *ref)
			}
		}
	}
}

// TestHBIncrementalSavesWork: the point of the layer — on a branching walk
// the incremental mode must derive strictly fewer happens-before rows than
// the rebuild reference re-derives.
func TestHBIncrementalSavesWork(t *testing.T) {
	_, inc := driveTree(t, NewSourceDPOR(0, 1), 3, raceSystem(3))
	_, reb := driveTree(t, NewSourceDPOR(0, 1).SetRaceAnalysis(RaceRebuild), 3, raceSystem(3))
	if inc.RaceEvents == 0 || reb.RaceEvents == 0 {
		t.Fatalf("race accounting missing: incremental %d, rebuild %d", inc.RaceEvents, reb.RaceEvents)
	}
	if inc.RaceEvents >= reb.RaceEvents {
		t.Fatalf("incremental layer derived %d rows, rebuild %d — no work saved", inc.RaceEvents, reb.RaceEvents)
	}
}

// TestHBPrefixGuard is the cross-reset differential assert: the incremental
// layer's register intern table is persistent for a walk, which is only
// sound while the walk drives one engine instance. An engine recycled
// mid-walk (Exec.Reset respawns lanes over a fresh instance whose register
// objects are new identities) would surface as a prefix divergence at the
// boundary event — the guard must catch it rather than silently splitting
// keys and masking races.
func TestHBPrefixGuard(t *testing.T) {
	var r1, r2 shmem.Reg
	h := &hbState{}
	tr := sched.Trace{
		{Pid: 0, Op: shmem.OpWrite, Reg: &r1},
		{Pid: 1, Op: shmem.OpRead, Reg: &r1},
		{Pid: 1, Op: shmem.OpWrite, Reg: &r1},
	}
	h.extend(tr)
	if h.n != 3 || len(h.regKey) != 1 {
		t.Fatalf("digest: n=%d keys=%d", h.n, len(h.regKey))
	}

	// Distinct identities intern to distinct keys even after a full rewind:
	// the persistent table never aliases a recycled instance's fresh
	// registers onto old keys.
	h.truncate(0)
	h.extend(sched.Trace{{Pid: 0, Op: shmem.OpWrite, Reg: &r2}})
	if len(h.regKey) != 2 || h.keys[0] == h.regKey[any(&r1)] {
		t.Fatalf("fresh register aliased onto old key: keys=%v regKey=%v", h.keys[:1], h.regKey)
	}

	// A diverged prefix — the same event slot now naming a different
	// register identity, as a mid-walk engine swap would produce — must trip
	// the guard.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("prefix guard did not fire on a diverged register identity")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "prefix diverged") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	h.extend(sched.Trace{
		{Pid: 0, Op: shmem.OpWrite, Reg: &r1}, // was &r2 when digested
		{Pid: 1, Op: shmem.OpRead, Reg: &r1},
	})
}
