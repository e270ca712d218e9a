package sched

import (
	"fmt"
	"testing"

	"repro/internal/shmem"
)

// spinReader is a body that reads one register forever; benchmark loops
// grant it steps and Abort releases it.
func spinReader(r *shmem.Reg) Body {
	return func(p *shmem.Proc) {
		for {
			p.Read(r)
		}
	}
}

// stepSizes is the n sweep shared by the step benchmarks; the large sizes
// are the simulation-scale regime the ROADMAP targets.
var stepSizes = []int{1, 8, 64, 512, 4096}

// BenchmarkControllerStep measures the steady-state driven grant path — one
// round-robin policy decision plus one granted step per iteration, exactly
// the decision loop Run executes (the decision walks the pending bitmap
// without building a slice), with 0 allocs/op.
func BenchmarkControllerStep(b *testing.B) {
	for _, n := range stepSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var r shmem.Reg
			c := NewController(n, nil, spinReader(&r))
			defer c.Abort()
			rr := &RoundRobin{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step(rr.Next(c))
			}
			b.StopTimer()
		})
	}
}

// BenchmarkRunRoundRobin measures a whole driven execution (construction to
// result) of 8 processes taking 64 steps each.
func BenchmarkRunRoundRobin(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r shmem.Reg
		res := Run(8, nil, &RoundRobin{}, nil, func(p *shmem.Proc) {
			for j := 0; j < 64; j++ {
				p.Read(&r)
			}
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkRunFree measures the uncontrolled mode: free-running goroutines
// over atomic registers.
func BenchmarkRunFree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r shmem.Reg
		res := RunFree(8, nil, func(p *shmem.Proc) {
			for j := 0; j < 256; j++ {
				p.Read(&r)
			}
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
