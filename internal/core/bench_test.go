package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// benchDrive measures whole driven renaming executions: k contenders race
// through a freshly built renamer under a seeded random schedule. Reported
// metrics are the paper's units — total local steps per execution and
// nanoseconds of simulation per step.
func benchDrive(b *testing.B, k int, mk func(seed uint64) Renamer) {
	b.Helper()
	b.ReportAllocs()
	var totalSteps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seed := uint64(i) + 1
		r := mk(seed)
		b.StartTimer()
		res := sched.Run(k, nil, sched.NewRandom(seed), nil, func(p *shmem.Proc) {
			r.Rename(p, p.Name())
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		totalSteps += res.TotalSteps()
	}
	b.StopTimer()
	if totalSteps > 0 {
		b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
	}
}

func BenchmarkBasicRename(b *testing.B) {
	benchDrive(b, 16, func(seed uint64) Renamer {
		return NewBasic(16, 1<<10, Config{Seed: seed})
	})
}

func BenchmarkEfficientRename(b *testing.B) {
	benchDrive(b, 16, func(seed uint64) Renamer {
		return NewEfficient(16, 0, Config{Seed: seed})
	})
}

func BenchmarkAdaptiveRename(b *testing.B) {
	benchDrive(b, 16, func(seed uint64) Renamer {
		return NewAdaptive(16, Config{Seed: seed})
	})
}

func BenchmarkPolyLogRename(b *testing.B) {
	// The name space must be large enough (N >> k) for the epoch
	// construction to engage; at small N/k the practical profile is already
	// at its fixpoint and PolyLog degenerates to the identity.
	benchDrive(b, 16, func(seed uint64) Renamer {
		return NewPolyLog(16, 1<<16, Config{Seed: seed})
	})
}

func BenchmarkMajorityRename(b *testing.B) {
	benchDrive(b, 8, func(seed uint64) Renamer {
		return NewMajority(8, 1<<10, Config{Seed: seed})
	})
}

// BenchmarkEfficientRenameFree is the same workload under free-running
// goroutines (no scheduler), the upper bound on simulation throughput.
func BenchmarkEfficientRenameFree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewEfficient(16, 0, Config{Seed: uint64(i) + 1})
		b.StartTimer()
		res := sched.RunFree(16, nil, func(p *shmem.Proc) {
			r.Rename(p, p.Name())
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
