package core

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

func TestAlmostAdaptiveNameBoundScalesWithContention(t *testing.T) {
	// Theorem 3: with contention k unknown to the code, names stay within
	// the level-⌈lg k⌉ block boundary, which is O(k).
	const n, nNames = 16, 1 << 12
	for _, k := range []int{1, 2, 4, 8, 16} {
		for seed := uint64(0); seed < 6; seed++ {
			a := NewAlmostAdaptive(nNames, n, Config{Seed: 400 + seed})
			run := driveRenamer(t, a, k, sampleOrigs(k, nNames, seed), seed, nil)
			if len(run.failed) != 0 {
				t.Fatalf("k=%d seed=%d: %d failures", k, seed, len(run.failed))
			}
			bound := a.NameBound(k)
			for pid, name := range run.names {
				if name > bound {
					t.Fatalf("k=%d seed=%d: process %d name %d exceeds adaptive bound %d",
						k, seed, pid, name, bound)
				}
			}
			if a.FallbackCount() != 0 {
				t.Fatalf("k=%d: fallback used", k)
			}
		}
	}
}

func TestAlmostAdaptiveLowContentionUsesEarlyLevels(t *testing.T) {
	// k=1 must resolve in level 0 with a name within its tiny block.
	a := NewAlmostAdaptive(1<<12, 32, Config{Seed: 5})
	run := driveRenamer(t, a, 1, []int64{3000}, 0, nil)
	if run.names[0] > a.NameBound(1) {
		t.Fatalf("solo name %d beyond level-0 block %d", run.names[0], a.NameBound(1))
	}
}

func TestAlmostAdaptiveWaitFreedom(t *testing.T) {
	a := NewAlmostAdaptive(1<<10, 8, Config{Seed: 6})
	run := driveRenamer(t, a, 8, nil, 0, sched.CrashAllBut(7))
	if _, ok := run.names[7]; !ok {
		t.Fatal("survivor did not rename")
	}
}

func TestAlmostAdaptiveRegistersShape(t *testing.T) {
	// Theorem 3: r = O(n·log(N/n)). Doubling n roughly doubles registers.
	rA := NewAlmostAdaptive(1<<14, 8, Config{Seed: 7}).Registers()
	rB := NewAlmostAdaptive(1<<14, 16, Config{Seed: 7}).Registers()
	if rB > 3*rA {
		t.Fatalf("registers grew superlinearly in n: %d -> %d", rA, rB)
	}
}

func TestAdaptiveTheorem4Bound(t *testing.T) {
	// Theorem 4: M = 8k - lg k - 1 with neither k nor N known.
	const n = 16
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		for seed := uint64(0); seed < 6; seed++ {
			a := NewAdaptive(n, Config{Seed: 500 + seed})
			origs := sampleOrigs(k, 1<<30, seed) // N effectively unbounded
			run := driveRenamer(t, a, k, origs, seed, nil)
			if len(run.failed) != 0 {
				t.Fatalf("k=%d seed=%d: %d failures", k, seed, len(run.failed))
			}
			bound := a.NameBound(k)
			for pid, name := range run.names {
				if name > bound {
					t.Fatalf("k=%d seed=%d: process %d name %d exceeds 8k-lgk-1 = %d",
						k, seed, pid, name, bound)
				}
			}
			if a.FallbackCount() != 0 {
				t.Fatalf("k=%d: fallback used", k)
			}
		}
	}
}

func TestAdaptiveStepsWithinConstructionBound(t *testing.T) {
	// Theorem 4 claims O(k) local steps, but the constant hides Theorem 1's
	// 768e⁴ fixpoint: below k ≈ 768e⁴ the PolyLog stage cannot compress the
	// grid's k(k+1)/2 names further, so the AF stage runs on Θ(k²) slots and
	// the concrete bound at practical scale is Θ(k²) (see EXPERIMENTS.md,
	// E6/E8). Assert the measured steps stay within the concrete quadratic
	// envelope and do not blow past it.
	const n = 32
	steps := func(k int) int64 {
		a := NewAdaptive(n, Config{Seed: 77})
		run := driveRenamer(t, a, k, sampleOrigs(k, 1<<20, 1), 1, nil)
		if len(run.failed) != 0 {
			t.Fatalf("k=%d: unexpected failures", k)
		}
		return run.res.MaxSteps()
	}
	s4, s16 := steps(4), steps(16)
	// 4x contention: the concrete envelope allows up to 16x plus slack.
	if s16 > 24*s4 {
		t.Fatalf("steps grew beyond the quadratic envelope: k=4:%d k=16:%d", s4, s16)
	}
	if s16 > 200*16*16 {
		t.Fatalf("absolute step count %d implausibly large for k=16", s16)
	}
}

func TestAdaptiveWaitFreedom(t *testing.T) {
	a := NewAdaptive(8, Config{Seed: 8})
	run := driveRenamer(t, a, 8, nil, 0, sched.CrashAllBut(0))
	if _, ok := run.names[0]; !ok {
		t.Fatal("survivor did not rename")
	}
}

func TestAdaptiveExclusivenessUnderCrashes(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a := NewAdaptive(8, Config{Seed: seed})
		driveRenamer(t, a, 8, sampleOrigs(8, 1<<20, seed), seed,
			sched.RandomCrashes(seed+17, 0.02, 7))
	}
}

func TestAdaptiveConcurrent(t *testing.T) {
	for trial := uint64(0); trial < 8; trial++ {
		const k = 6
		a := NewAdaptive(8, Config{Seed: 600 + trial})
		names := driveConcurrent(t, a, k, sampleOrigs(k, 1<<24, trial))
		if len(names) != k {
			t.Fatalf("trial %d: only %d renamed", trial, len(names))
		}
	}
}

func TestAdaptiveNameBoundFormula(t *testing.T) {
	a := NewAdaptive(64, Config{Seed: 3})
	cases := []struct {
		k    int
		want int64
	}{
		{2, 8*2 - 1 - 1},   // lg 2 = 1
		{4, 8*4 - 2 - 1},   // lg 4 = 2
		{5, 8*5 - 3 - 1},   // ⌈lg 5⌉ = 3
		{16, 8*16 - 4 - 1}, // lg 16 = 4
	}
	for _, c := range cases {
		if got := a.NameBound(c.k); got != c.want {
			t.Fatalf("NameBound(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestAdaptiveBlocksCoverBound(t *testing.T) {
	// The cumulative level blocks through level ⌈lg k⌉ must fit under the
	// Theorem 4 formula, else the bound claim is vacuous.
	a := NewAdaptive(64, Config{Seed: 4})
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		var sum int64
		for i := 0; i < len(a.levels); i++ {
			sum += a.levels[i].MaxName()
			if a.levels[i].K() >= k {
				break
			}
		}
		if sum > a.NameBound(k) {
			t.Fatalf("k=%d: blocks sum to %d > bound %d", k, sum, a.NameBound(k))
		}
	}
}

// TestAdaptiveFallbackFrameMatchesRename drives an Adaptive cut down to its
// level-0 Efficient(1) with four contenders, so the levels overflow and
// the object-wide fallback lane serves the losers, on both engines under
// the same seeded schedules and crashes. The frame runs the fallback on the
// level's idle AF stage frame; every process must take the same steps and
// return the same name as the goroutine Rename.
func TestAdaptiveFallbackFrameMatchesRename(t *testing.T) {
	const n = 4
	var fallbacks int64
	for seed := uint64(0); seed < 16; seed++ {
		build := func() *Adaptive {
			a := NewAdaptive(n, Config{Seed: seed})
			a.levels, a.bases = a.levels[:1], a.bases[:1]
			return a
		}
		origs := sampleOrigs(n, 1<<10, seed)
		plan := func() sched.CrashPlan { return sched.RandomCrashes(seed+5, 0.01, n-1) }

		ga, gname, gok := build(), make([]int64, n), make([]bool, n)
		gres := sched.Run(n, origs, sched.NewRandom(seed), plan(), func(p *shmem.Proc) {
			gname[p.ID()], gok[p.ID()] = ga.Rename(p, p.Name())
		})
		va, vname, vok := build(), make([]int64, n), make([]bool, n)
		e := vexec.New(n, origs, func(p *shmem.Proc) vexec.Frame {
			return vexec.Capture(va.FrameRename(p.Name(), nil), &vname[p.ID()], &vok[p.ID()], nil)
		})
		vres := e.Run(sched.NewRandom(seed), plan())
		if gres.Err != nil || vres.Err != nil {
			t.Fatalf("seed %d: goroutine %v, vexec %v", seed, gres.Err, vres.Err)
		}
		if vres.Fingerprint != gres.Fingerprint || !slices.Equal(vres.Steps, gres.Steps) ||
			!slices.Equal(vname, gname) || !slices.Equal(vok, gok) || va.FallbackCount() != ga.FallbackCount() {
			t.Fatalf("seed %d: vexec names %v %v, %d fallbacks, steps %v; goroutine names %v %v, %d fallbacks, steps %v",
				seed, vname, vok, va.FallbackCount(), vres.Steps, gname, gok, ga.FallbackCount(), gres.Steps)
		}
		fallbacks += va.FallbackCount()
	}
	if fallbacks == 0 {
		t.Fatal("no process reached the fallback lane")
	}
}
