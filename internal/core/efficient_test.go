package core

import (
	"testing"

	"repro/internal/sched"
)

func TestEfficientTwoKMinusOne(t *testing.T) {
	// Theorem 2: M = 2k-1 exactly, all k renamed, huge original names fine.
	for _, k := range []int{1, 2, 4, 8, 16} {
		for seed := uint64(0); seed < 8; seed++ {
			e := NewEfficient(k, Config{Seed: 100 + seed})
			if e.MaxName() != int64(2*k-1) {
				t.Fatalf("k=%d: MaxName=%d, want %d", k, e.MaxName(), 2*k-1)
			}
			origs := sampleOrigs(k, 1<<30, seed) // N unknown/huge: k-renaming
			run := driveRenamer(t, e, k, origs, seed, nil)
			if len(run.failed) != 0 {
				t.Fatalf("k=%d seed=%d: %d failures", k, seed, len(run.failed))
			}
			for pid, name := range run.names {
				if name > int64(2*k-1) {
					t.Fatalf("k=%d: process %d name %d > 2k-1", k, pid, name)
				}
			}
		}
	}
}

func TestEfficientRegistersQuadratic(t *testing.T) {
	// Theorem 2: r = O(k²). Doubling k must grow registers by at most ~4x
	// (plus lower-order terms).
	r8 := NewEfficient(8, Config{Seed: 6}).Registers()
	r16 := NewEfficient(16, Config{Seed: 6}).Registers()
	if r16 > 6*r8 {
		t.Fatalf("registers grew faster than quadratic: %d -> %d", r8, r16)
	}
}

func TestEfficientWaitFreedom(t *testing.T) {
	const k = 8
	for survivor := 0; survivor < k; survivor += 3 {
		e := NewEfficient(k, Config{Seed: 9})
		run := driveRenamer(t, e, k, nil, 0, sched.CrashAllBut(survivor))
		if _, ok := run.names[survivor]; !ok {
			t.Fatalf("survivor %d did not rename", survivor)
		}
	}
}

func TestEfficientExclusivenessUnderCrashes(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		e := NewEfficient(8, Config{Seed: seed})
		driveRenamer(t, e, 8, sampleOrigs(8, 1<<20, seed), seed,
			sched.RandomCrashes(seed+3, 0.02, 7))
	}
}

func TestEfficientConcurrent(t *testing.T) {
	for trial := uint64(0); trial < 10; trial++ {
		const k = 8
		e := NewEfficient(k, Config{Seed: 50 + trial})
		names := driveConcurrent(t, e, k, sampleOrigs(k, 1<<24, trial))
		if len(names) != k {
			t.Fatalf("trial %d: only %d renamed", trial, len(names))
		}
		for _, n := range names {
			if n > int64(2*k-1) {
				t.Fatalf("trial %d: name %d > 2k-1", trial, n)
			}
		}
	}
}

func TestEfficientOverloadWithoutFallbackFailsCleanly(t *testing.T) {
	// Over-contended: failures allowed (they feed the next doubling level in
	// Adaptive), exclusiveness enforced by driveRenamer.
	for seed := uint64(0); seed < 10; seed++ {
		e := NewEfficient(2, Config{Seed: 300 + seed})
		driveRenamer(t, e, 8, sampleOrigs(8, 1<<16, seed), seed, nil)
	}
}

func TestEfficientPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEfficient(0, Config{})
}
