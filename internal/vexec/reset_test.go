package vexec_test

// Exec.Reset lets a campaign worker recycle one engine across thousands of
// independent runs. The contract is that a recycled engine is
// indistinguishable from a fresh one: same fingerprints, steps, crash flags
// and rename results run for run — including when consecutive runs switch
// fault models (the capability knobs must come back down) and when runs
// leave lanes crashed or mid-execution state behind. A recycled engine must
// also agree with the goroutine oracle at populations the differential
// suites do not reach.

import (
	"testing"

	"repro/internal/compete"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// resetSpec is one independent run of the recycling test.
type resetSpec struct {
	n      int
	model  shmem.Model
	policy sched.Policy
	plan   sched.CrashPlan // nil injects no crashes
	root   func(p *shmem.Proc) vexec.Frame
}

func resetSpecs(runs int) []resetSpec {
	specs := make([]resetSpec, runs)
	for i := range specs {
		n := 2 + i%3
		var m shmem.Model
		switch i % 4 {
		case 1:
			m = shmem.Model{Regs: shmem.RegRegular}
		case 2:
			m = shmem.Model{Regs: shmem.RegSafe}
		case 3:
			m = shmem.Model{Recovery: true}
		}
		var plan sched.CrashPlan
		if i%5 == 0 {
			plan = sched.RandomCrashes(uint64(i)*31+7, 0.1, n-1)
		}
		ff := compete.NewFirstFit(n)
		specs[i] = resetSpec{
			n:      n,
			model:  m,
			policy: sched.NewRandom(uint64(i)*2654435761 + 1),
			plan:   plan,
			root:   func(p *shmem.Proc) vexec.Frame { return ff.FrameRename(p.Name(), nil) },
		}
	}
	return specs
}

// run drives sp to completion on e, rewound through Reset, or on a fresh
// engine when e is nil, and returns the engine it ran on.
func (sp resetSpec) run(e *vexec.Exec) (*vexec.Exec, sched.Result) {
	if e == nil {
		e = vexec.New(sp.n, nil, sp.root)
	} else {
		e.Reset(nil, sp.root)
	}
	if !sp.model.Atomic() {
		e.SetModel(sp.model)
	}
	return e, e.Run(sp.policy, sp.plan)
}

func TestResetRecycledEnginesMatchFresh(t *testing.T) {
	const runs = 64
	// Fresh engine per run: the reference. Policies and plans are stateful,
	// so each arm gets its own spec list (identical seeds).
	ref := make([]sched.Result, runs)
	for i, sp := range resetSpecs(runs) {
		_, ref[i] = sp.run(nil)
	}
	// One engine per lane count, recycled through Reset after its first
	// run. Lane counts cycle run to run, so every recycle follows a run at
	// another lane count on another engine, under another fault model.
	engines := map[int]*vexec.Exec{}
	for i, sp := range resetSpecs(runs) {
		var got sched.Result
		engines[sp.n], got = sp.run(engines[sp.n])
		if got.Fingerprint != ref[i].Fingerprint {
			t.Fatalf("run %d: recycled fingerprint %#x, fresh %#x", i, got.Fingerprint, ref[i].Fingerprint)
		}
		for pid := range ref[i].Steps {
			if got.Steps[pid] != ref[i].Steps[pid] || got.Crashed[pid] != ref[i].Crashed[pid] {
				t.Fatalf("run %d pid %d: recycled (steps %d, crashed %v), fresh (steps %d, crashed %v)",
					i, pid, got.Steps[pid], got.Crashed[pid], ref[i].Steps[pid], ref[i].Crashed[pid])
			}
		}
	}

	// The goroutine oracle at n=16: run i draws its schedule from
	// sched.NewRandom(seed(i)) on both engines, so the decision sequences and
	// every fingerprint must match.
	type renamer interface {
		Rename(p *shmem.Proc, orig int64) (int64, bool)
		vexec.FrameRenamer
	}
	seed := func(run int) uint64 { return 0x7e8ec ^ uint64(run)*0x9e3779b97f4a7c15 }
	for _, cfg := range []struct {
		name  string
		n     int
		build func(n int, seed uint64) renamer
	}{
		{"firstfit", 16, func(n int, _ uint64) renamer { return compete.NewFirstFit(n) }},
		{"adaptive", 16, func(n int, seed uint64) renamer { return core.NewAdaptive(n, core.Config{Seed: seed}) }},
	} {
		const runs = 16
		var e *vexec.Exec
		for i := 0; i < runs; i++ {
			r := cfg.build(cfg.n, seed(i))
			oracle := sched.Run(cfg.n, nil, sched.NewRandom(seed(i)), nil, func(p *shmem.Proc) { r.Rename(p, p.Name()) })
			if oracle.Err != nil || oracle.TotalSteps() == 0 {
				t.Fatalf("%s n=%d run %d: oracle ran nothing (err %v)", cfg.name, cfg.n, i, oracle.Err)
			}
			r = cfg.build(cfg.n, seed(i))
			sp := resetSpec{n: cfg.n, policy: sched.NewRandom(seed(i)), root: func(p *shmem.Proc) vexec.Frame { return r.FrameRename(p.Name(), nil) }}
			var got sched.Result
			e, got = sp.run(e)
			if got.Fingerprint != oracle.Fingerprint {
				t.Fatalf("%s n=%d run %d: recycled fingerprint %#x, oracle %#x",
					cfg.name, cfg.n, i, got.Fingerprint, oracle.Fingerprint)
			}
		}
	}
}

func TestResetMatchesNew(t *testing.T) {
	// Drive a weak-register run with tracing on a fresh engine, then Reset
	// the same engine for an atomic run and compare against a from-scratch
	// engine at every decision: the knobs must come back down and no state
	// may leak across the rewind.
	ff1 := compete.NewFirstFit(3)
	e := vexec.New(3, nil, func(p *shmem.Proc) vexec.Frame { return ff1.FrameRename(p.Name(), nil) })
	e.SetModel(shmem.Model{Regs: shmem.RegRegular})
	e.EnableTrace()
	e.Run(sched.NewRandom(7), nil)

	ff2 := compete.NewFirstFit(3)
	e.Reset(nil, func(p *shmem.Proc) vexec.Frame { return ff2.FrameRename(p.Name(), nil) })
	if got := e.Model(); got != (shmem.Model{}) {
		t.Fatalf("Reset kept the fault model %v armed", got)
	}
	ff3 := compete.NewFirstFit(3)
	fresh := vexec.New(3, nil, func(p *shmem.Proc) vexec.Frame { return ff3.FrameRename(p.Name(), nil) })
	rr1, rr2 := &sched.RoundRobin{}, &sched.RoundRobin{}
	for fresh.PendingCount() > 0 {
		e.Step(rr1.Next(e))
		fresh.Step(rr2.Next(fresh))
		if e.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("after %d grants: recycled fingerprint %#x, fresh %#x", fresh.Grants(), e.Fingerprint(), fresh.Fingerprint())
		}
	}
	if e.PendingCount() != 0 {
		t.Fatalf("recycled engine still has %d pending lanes after the fresh one finished", e.PendingCount())
	}
}
