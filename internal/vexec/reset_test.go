package vexec_test

// Exec.Reset lets RunBatch recycle one engine per worker across thousands of
// independent runs. The contract is that a recycled engine is
// indistinguishable from a fresh one: same fingerprints, steps, crash flags
// and rename results run for run — including when consecutive runs switch
// fault models (the capability knobs must come back down) and when runs
// leave lanes crashed or mid-execution state behind. RunBatch must also
// agree with the goroutine oracle's sched.ParallelRuns at populations the
// differential suites do not reach.

import (
	"testing"

	"repro/internal/compete"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

func batchSpecs(t *testing.T, runs int) []vexec.BatchSpec {
	t.Helper()
	specs := make([]vexec.BatchSpec, runs)
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
		specs[i] = vexec.BatchSpec{
			N:      n,
			Model:  m,
			Policy: sched.NewRandom(uint64(i)*2654435761 + 1),
			Plan:   plan,
			Root:   func(p *shmem.Proc) vexec.Frame { return ff.FrameRename(p.Name()) },
		}
	}
	return specs
}

func TestRunBatchRecycledEnginesMatchFresh(t *testing.T) {
	const runs = 64
	// Fresh engine per run: the reference. Policies and plans are stateful,
	// so each arm gets its own spec list (identical seeds).
	ref := make([]sched.Result, runs)
	for i, sp := range batchSpecs(t, runs) {
		ref[i] = vexec.RunFresh(sp)
	}
	// RunBatch recycles engines worker-side via Exec.Reset. Lane counts vary
	// run to run on purpose: the reuse path must handle both the n-matches
	// recycle and the n-changed reconstruct.
	specs := batchSpecs(t, runs)
	got := vexec.RunBatch(runs, func(run int) vexec.BatchSpec { return specs[run] })
	for i := range ref {
		if got[i].Fingerprint != ref[i].Fingerprint {
			t.Fatalf("run %d: recycled fingerprint %#x, fresh %#x", i, got[i].Fingerprint, ref[i].Fingerprint)
		}
		for pid := range ref[i].Steps {
			if got[i].Steps[pid] != ref[i].Steps[pid] || got[i].Crashed[pid] != ref[i].Crashed[pid] {
				t.Fatalf("run %d pid %d: recycled (steps %d, crashed %v), fresh (steps %d, crashed %v)",
					i, pid, got[i].Steps[pid], got[i].Crashed[pid], ref[i].Steps[pid], ref[i].Crashed[pid])
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
		oracle := sched.ParallelRuns(runs, func(run int) sched.RunSpec {
			r := cfg.build(cfg.n, seed(run))
			return sched.RunSpec{
				N:      cfg.n,
				Policy: sched.NewRandom(seed(run)),
				Body:   func(p *shmem.Proc) { r.Rename(p, p.Name()) },
			}
		})
		batch := vexec.RunBatch(runs, func(run int) vexec.BatchSpec {
			r := cfg.build(cfg.n, seed(run))
			return vexec.BatchSpec{
				N:      cfg.n,
				Policy: sched.NewRandom(seed(run)),
				Root:   func(p *shmem.Proc) vexec.Frame { return r.FrameRename(p.Name()) },
			}
		})
		for i := range oracle {
			if oracle[i].Err != nil || oracle[i].TotalSteps() == 0 {
				t.Fatalf("%s n=%d run %d: oracle ran nothing (err %v)", cfg.name, cfg.n, i, oracle[i].Err)
			}
			if batch[i].Fingerprint != oracle[i].Fingerprint {
				t.Fatalf("%s n=%d run %d: RunBatch fingerprint %#x, ParallelRuns %#x",
					cfg.name, cfg.n, i, batch[i].Fingerprint, oracle[i].Fingerprint)
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
	e := vexec.New(3, nil, func(p *shmem.Proc) vexec.Frame { return ff1.FrameRename(p.Name()) })
	e.SetModel(shmem.Model{Regs: shmem.RegRegular})
	e.EnableTrace()
	e.Run(sched.NewRandom(7), nil)

	ff2 := compete.NewFirstFit(3)
	e.Reset(nil, func(p *shmem.Proc) vexec.Frame { return ff2.FrameRename(p.Name()) })
	if got := e.Model(); got != (shmem.Model{}) {
		t.Fatalf("Reset kept the fault model %v armed", got)
	}
	ff3 := compete.NewFirstFit(3)
	fresh := vexec.New(3, nil, func(p *shmem.Proc) vexec.Frame { return ff3.FrameRename(p.Name()) })
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
