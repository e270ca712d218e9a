package vexec_test

// The differential suite: the goroutine engine (sched.Controller) is the
// conformance oracle, and every run here drives both engines over identical
// instances and decision processes, requiring bit-identical results — same
// per-pid steps, crash flags, restarts, rename outcomes and fingerprints.
// Replaying the oracle's trace decision by decision, both engines must also
// agree after every decision on the scalar register it wrote and on each
// pending read's stale choices (checkDecisions). Coverage spans the full
// conformance table, randomized schedules with crash injection, the fault
// models (weak registers, crash-recovery), trace replay in both directions,
// and a fuzz arm with committed corpus seeds.

import (
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// outcome is everything observable about one driven execution.
type outcome struct {
	res   sched.Result
	got   []int64
	oks   []bool
	trace sched.Trace
}

// newOracle builds the goroutine engine over a fresh instance of the case.
func newOracle(c conformance.Case, n int, seed uint64, m shmem.Model) (*sched.Controller, []int64, []bool) {
	r := c.New(n, seed)
	got := make([]int64, n)
	oks := make([]bool, n)
	ctl := sched.NewController(n, c.Origs(n, seed), func(p *shmem.Proc) {
		got[p.ID()], oks[p.ID()] = r.Rename(p, p.Name())
	})
	if !m.Atomic() {
		ctl.SetModel(m)
	}
	return ctl, got, oks
}

// driveOracle runs the goroutine engine over a fresh instance of the case.
func driveOracle(t *testing.T, c conformance.Case, n int, seed uint64, m shmem.Model, policy sched.Policy, plan sched.CrashPlan) outcome {
	t.Helper()
	ctl, got, oks := newOracle(c, n, seed, m)
	ctl.EnableTrace()
	res := ctl.Run(policy, plan)
	return outcome{res: res, got: got, oks: oks, trace: ctl.Trace()}
}

// checkDecisions replays trace decision by decision on a fresh vexec engine
// with state capture and on a fresh oracle, requiring after every decision
// the same contents in the scalar register a write grant wrote (Ref
// contents are per-instance pointers; the outcome comparison covers them)
// and the same stale choices for every pending read.
func checkDecisions(t *testing.T, label string, c conformance.Case, n int, seed uint64, m shmem.Model, trace sched.Trace) {
	t.Helper()
	e, _, _ := newVexec(t, c, n, seed, m, true)
	ctl, _, _ := newOracle(c, n, seed, m)
	defer ctl.Abort()
	for i, ev := range trace {
		var ve, oe *shmem.Reg
		if !ev.Restart && !ev.Crash && ev.Op == shmem.OpWrite {
			ve, _ = e.Intent(ev.Pid).Reg.(*shmem.Reg)
			oe, _ = ctl.Intent(ev.Pid).Reg.(*shmem.Reg)
		}
		if err := sched.ApplyTraceTo(e, trace[i:i+1]); err != nil {
			t.Fatalf("%s: vexec replay: %v", label, err)
		}
		if err := sched.ApplyTraceTo(ctl, trace[i:i+1]); err != nil {
			t.Fatalf("%s: oracle replay: %v", label, err)
		}
		if ve != nil && ve.Peek() != oe.Peek() {
			t.Fatalf("%s: decision %d (%s) wrote %d on vexec, %d on the oracle", label, i, ev, ve.Peek(), oe.Peek())
		}
		for pid := sched.NextBit(e.Pending(), -1); pid >= 0; pid = sched.NextBit(e.Pending(), pid) {
			if v, o := e.StaleVals(pid, nil), ctl.StaleVals(pid, nil); !slices.Equal(v, o) {
				t.Fatalf("%s: after decision %d, process %d stale choices: vexec %v, oracle %v", label, i, pid, v, o)
			}
		}
	}
}

// newVexec builds the vectorized engine over a fresh instance of the case.
func newVexec(t *testing.T, c conformance.Case, n int, seed uint64, m shmem.Model, wantState bool) (*vexec.Exec, []int64, []bool) {
	t.Helper()
	r := c.New(n, seed)
	fr, ok := r.(vexec.FrameRenamer)
	if !ok {
		t.Fatalf("case %s: %T does not implement vexec.FrameRenamer", c.Name, r)
	}
	origs := c.Origs(n, seed)
	got := make([]int64, n)
	oks := make([]bool, n)
	e := vexec.New(n, origs, func(p *shmem.Proc) vexec.Frame {
		return vexec.Capture(fr.FrameRename(p.Name(), nil), &got[p.ID()], &oks[p.ID()], nil)
	})
	if !m.Atomic() {
		e.SetModel(m)
	}
	if wantState {
		e.EnableState()
	}
	e.EnableTrace()
	return e, got, oks
}

// driveVexec runs the vectorized engine over a fresh instance of the case.
func driveVexec(t *testing.T, c conformance.Case, n int, seed uint64, m shmem.Model, policy sched.Policy, plan sched.CrashPlan, wantState bool) outcome {
	t.Helper()
	e, got, oks := newVexec(t, c, n, seed, m, wantState)
	res := e.Run(policy, plan)
	return outcome{res: res, got: got, oks: oks, trace: e.Trace()}
}

// compare asserts bit-identity between the oracle's outcome and vexec's.
func compare(t *testing.T, label string, o, v outcome) {
	t.Helper()
	if o.res.Fingerprint != v.res.Fingerprint {
		t.Errorf("%s: fingerprint: oracle %#x, vexec %#x", label, o.res.Fingerprint, v.res.Fingerprint)
	}
	if (o.res.Err == nil) != (v.res.Err == nil) {
		t.Errorf("%s: err: oracle %v, vexec %v", label, o.res.Err, v.res.Err)
	}
	for pid := range o.res.Steps {
		if o.res.Steps[pid] != v.res.Steps[pid] {
			t.Errorf("%s: pid %d steps: oracle %d, vexec %d", label, pid, o.res.Steps[pid], v.res.Steps[pid])
		}
		if o.res.Crashed[pid] != v.res.Crashed[pid] {
			t.Errorf("%s: pid %d crashed: oracle %v, vexec %v", label, pid, o.res.Crashed[pid], v.res.Crashed[pid])
		}
	}
	if (o.res.Restarts == nil) != (v.res.Restarts == nil) {
		t.Errorf("%s: restarts presence: oracle %v, vexec %v", label, o.res.Restarts, v.res.Restarts)
	}
	for pid := range o.res.Restarts {
		if o.res.Restarts[pid] != v.res.Restarts[pid] {
			t.Errorf("%s: pid %d restarts: oracle %d, vexec %d", label, pid, o.res.Restarts[pid], v.res.Restarts[pid])
		}
	}
	for pid := range o.got {
		if o.got[pid] != v.got[pid] || o.oks[pid] != v.oks[pid] {
			t.Errorf("%s: pid %d rename: oracle (%d,%v), vexec (%d,%v)", label, pid, o.got[pid], o.oks[pid], v.got[pid], v.oks[pid])
		}
	}
	if len(o.trace) != len(v.trace) {
		t.Errorf("%s: trace length: oracle %d, vexec %d", label, len(o.trace), len(v.trace))
		return
	}
	for i := range o.trace {
		oe, ve := o.trace[i], v.trace[i]
		// Reg holds instance-local register pointers; everything else must
		// agree event for event.
		if oe.Pid != ve.Pid || oe.Op != ve.Op || oe.Crash != ve.Crash || oe.Stale != ve.Stale || oe.Restart != ve.Restart {
			t.Errorf("%s: trace event %d: oracle %v, vexec %v", label, i, oe, ve)
			return
		}
	}
}

// seededCrashes returns a deterministic crash plan: from identical decision
// sequences, identical injections. A fresh plan is needed per engine because
// the RNG is stateful.
func seededCrashes(seed uint64, maxCrashes int) sched.CrashPlan {
	rng := xrand.New(xrand.Mix(seed, 0xc7a5))
	crashed := 0
	return sched.CrashPlanFunc(func(pid int, steps int64, intent shmem.Intent) bool {
		if crashed >= maxCrashes || rng.Intn(11) != 0 {
			return false
		}
		crashed++
		return true
	})
}

// TestDifferentialConformanceTable drives every conformance case on both
// engines under deterministic and seeded-random schedules, with and without
// crash injection, and requires bit-identical outcomes.
func TestDifferentialConformanceTable(t *testing.T) {
	for _, c := range conformance.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{2, 3} {
				for seed := uint64(1); seed <= 3; seed++ {
					modes := []struct {
						name   string
						policy func() sched.Policy
						plan   func() sched.CrashPlan
					}{
						{"roundrobin", func() sched.Policy { return &sched.RoundRobin{} }, func() sched.CrashPlan { return nil }},
						{"random", func() sched.Policy { return sched.NewRandom(seed * 101) }, func() sched.CrashPlan { return nil }},
						{"random-crash", func() sched.Policy { return sched.NewRandom(seed * 101) }, func() sched.CrashPlan { return seededCrashes(seed, n-1) }},
					}
					for _, md := range modes {
						o := driveOracle(t, c, n, seed, shmem.Model{}, md.policy(), md.plan())
						v := driveVexec(t, c, n, seed, shmem.Model{}, md.policy(), md.plan(), true)
						compare(t, c.Name+"/"+md.name, o, v)
						checkDecisions(t, c.Name+"/"+md.name, c, n, seed, shmem.Model{}, o.trace)
					}
				}
			}
		})
	}
}

// TestDifferentialFaultModels exercises the weak-register models (stale
// reads through the StalePolicy extension) and crash-recovery (restarts
// through the RestartPlan extension) on both engines.
func TestDifferentialFaultModels(t *testing.T) {
	cases := map[string]conformance.Case{}
	for _, c := range conformance.Cases() {
		cases[c.Name] = c
	}
	models := []struct {
		name string
		m    shmem.Model
	}{
		{"regular", shmem.Model{Regs: shmem.RegRegular}},
		{"safe", shmem.Model{Regs: shmem.RegSafe}},
		{"recovery", shmem.Model{Recovery: true}},
		{"safe-recovery", shmem.Model{Regs: shmem.RegSafe, Recovery: true}},
	}
	for _, name := range []string{"firstfit", "majority", "basic"} {
		c, ok := cases[name]
		if !ok {
			t.Fatalf("conformance case %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mm := range models {
				for _, n := range []int{2, 3, 4} {
					for seed := uint64(1); seed <= 4; seed++ {
						mkPolicy := func() sched.Policy { return adversary.NewStaleReader(seed * 7) }
						mkPlan := func() sched.CrashPlan {
							if !mm.m.Recovery {
								return seededCrashes(seed, n-1)
							}
							return adversary.NewRestarter(seed*13, n, 0.05, n-1)
						}
						o := driveOracle(t, c, n, seed, mm.m, mkPolicy(), mkPlan())
						v := driveVexec(t, c, n, seed, mm.m, mkPolicy(), mkPlan(), true)
						compare(t, name+"/"+mm.name, o, v)
						checkDecisions(t, name+"/"+mm.name, c, n, seed, mm.m, o.trace)
					}
				}
			}
		})
	}
}

// TestDifferentialReplay closes the trace loop in both directions: a trace
// recorded on one engine replays on the other with the same fingerprint and
// outcome — which is what keeps committed adversary reproducer lines
// engine-agnostic.
func TestDifferentialReplay(t *testing.T) {
	for _, c := range conformance.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			const n, seed = 3, 2
			o := driveOracle(t, c, n, seed, shmem.Model{}, sched.NewRandom(99), seededCrashes(seed, n-1))

			// Oracle trace → vexec replay.
			e, got, oks := newVexec(t, c, n, seed, shmem.Model{}, false)
			if err := e.ApplyTrace(o.trace); err != nil {
				t.Fatalf("vexec replay of oracle trace: %v", err)
			}
			v := outcome{res: e.Result(), got: got, oks: oks, trace: e.Trace()}
			compare(t, c.Name+"/oracle-to-vexec", o, v)

			// vexec trace → oracle replay.
			v2 := driveVexec(t, c, n, seed, shmem.Model{}, sched.NewRandom(99), seededCrashes(seed, n-1), false)
			ctl, got2, oks2 := newOracle(c, n, seed, shmem.Model{})
			ctl.EnableTrace()
			if err := ctl.ApplyTrace(v2.trace); err != nil {
				t.Fatalf("oracle replay of vexec trace: %v", err)
			}
			o2 := outcome{res: ctl.Result(), got: got2, oks: oks2, trace: ctl.Trace()}
			compare(t, c.Name+"/vexec-to-oracle", v2, o2)
		})
	}
}

// TestVexecReturned pins the engine's own result surface: Returned reports
// the root frame's value exactly once the lane is done.
func TestVexecReturned(t *testing.T) {
	cases := conformance.Cases()
	c := cases[0] // majority
	const n, seed = 3, 1
	e, got, oks := newVexec(t, c, n, seed, shmem.Model{}, false)
	if _, ok := e.Returned(0); ok {
		t.Fatalf("Returned(0) reported a result before the lane finished")
	}
	e.Run(&sched.RoundRobin{}, nil)
	for pid := 0; pid < n; pid++ {
		ri, ok := e.Returned(pid)
		if !ok {
			t.Fatalf("Returned(%d) not available after Run", pid)
		}
		// The capture frame is the root, so its Return mirrors the child's.
		if oks[pid] && ri != got[pid] {
			t.Fatalf("Returned(%d) = %d, capture recorded %d", pid, ri, got[pid])
		}
	}
}

// driveDetour re-executes a recorded schedule on vexec with a
// checkpoint/restore detour at decision d: replay d events, checkpoint, run a
// divergent seeded excursion to completion, restore, replay the rest. The
// detour must be invisible — the returned outcome must be bit-identical to
// the straight drive that recorded the schedule.
func driveDetour(t *testing.T, c conformance.Case, n int, seed uint64, m shmem.Model, trace sched.Trace, d int) outcome {
	t.Helper()
	e, got, oks := newVexec(t, c, n, seed, m, true)
	if err := e.ApplyTrace(trace[:d]); err != nil {
		t.Fatalf("detour prefix replay (d=%d): %v", d, err)
	}
	snap := e.Checkpoint()
	wantFP := e.Fingerprint()
	// Divergent excursion: run the rest of the execution under an unrelated
	// schedule, then rewind as if it never happened.
	sched.DriveEngine(e, sched.NewRandom(xrand.Mix(seed, 0xde70)), nil)
	e.Restore(snap, func(pid int) { got[pid], oks[pid] = 0, false })
	if e.Fingerprint() != wantFP {
		t.Fatalf("detour restore (d=%d): fingerprint %#x != checkpoint %#x", d, e.Fingerprint(), wantFP)
	}
	if err := e.ApplyTrace(trace[d:]); err != nil {
		t.Fatalf("detour suffix replay (d=%d): %v", d, err)
	}
	return outcome{res: e.Result(), got: got, oks: oks, trace: e.Trace()}
}

// FuzzDifferential is the randomized arm of the differential contract: any
// (case, population, seed, schedule) tuple the fuzzer invents must produce
// bit-identical outcomes on both engines — including when the vexec
// execution is reconstructed through a mid-schedule checkpoint/restore
// detour — and the engines must agree decision by decision
// (checkDecisions). Committed corpus seeds live in
// testdata/fuzz/FuzzDifferential.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(0), uint64(3), uint64(1), uint64(0))
	f.Add(uint64(6), uint64(4), uint64(42), uint64(2))
	f.Add(uint64(3), uint64(2), uint64(7), uint64(1))
	f.Add(uint64(1), uint64(5), uint64(11), uint64(3))
	cases := conformance.Cases()
	f.Fuzz(func(t *testing.T, algo, n, seed, mode uint64) {
		c := cases[algo%uint64(len(cases))]
		k := int(n%4) + 2 // 2..5
		if c.Name == "efficient" || c.Name == "adaptive" {
			k = int(n%2) + 2 // snapshot stages get expensive; keep 2..3
		}
		var m shmem.Model
		switch mode % 4 {
		case 1:
			m = shmem.Model{Regs: shmem.RegRegular}
		case 2:
			m = shmem.Model{Regs: shmem.RegSafe}
		case 3:
			m = shmem.Model{Recovery: true}
		}
		mkPolicy := func() sched.Policy {
			if m.Regs != shmem.RegAtomic {
				return adversary.NewStaleReader(seed)
			}
			return sched.NewRandom(seed)
		}
		mkPlan := func() sched.CrashPlan {
			if m.Recovery {
				return adversary.NewRestarter(seed, k, 0.05, k-1)
			}
			return seededCrashes(seed, k-1)
		}
		o := driveOracle(t, c, k, seed, m, mkPolicy(), mkPlan())
		v := driveVexec(t, c, k, seed, m, mkPolicy(), mkPlan(), true)
		compare(t, c.Name, o, v)
		checkDecisions(t, c.Name, c, k, seed, m, o.trace)
		// Checkpoint/restore arm: rebuild the same execution around a
		// mid-schedule detour; the detour must be invisible.
		if len(o.trace) > 0 {
			d := int(xrand.Mix(seed, 0xd7) % uint64(len(o.trace)+1))
			vd := driveDetour(t, c, k, seed, m, o.trace, d)
			compare(t, c.Name+"/detour-vexec", o, vd)
		}
	})
}

// Ensure check.Renamer and vexec.FrameRenamer stay satisfied together for
// every table entry — a conformance case that loses its frame compilation
// fails here at build-run time rather than silently dropping out of the
// differential. Every case's root frame, bare and capture-wrapped as the
// model checker roots it, must also be a vexec.Cloner: Restore puts lanes
// back only by copy, so a checkpointing walk would fail on a root without it.
func TestEveryCaseCompilesToFrames(t *testing.T) {
	for _, c := range conformance.Cases() {
		r := c.New(2, 1)
		fr, ok := r.(vexec.FrameRenamer)
		if !ok {
			t.Errorf("case %s: %T lacks FrameRename", c.Name, r)
			continue
		}
		var _ check.Renamer = r
		root := fr.FrameRename(c.Origs(2, 1)[0], nil)
		if _, ok := root.(vexec.Cloner); !ok {
			t.Errorf("case %s: root frame %T is not a vexec.Cloner", c.Name, root)
		}
		var got int64
		var done bool
		if _, ok := vexec.Capture(root, &got, &done, nil).(vexec.Cloner); !ok {
			t.Errorf("case %s: the capture-wrapped root is not a vexec.Cloner", c.Name)
		}
	}
}
