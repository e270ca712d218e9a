package vexec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// BatchSpec describes one independent driven execution for RunBatch — the
// vexec analogue of sched.RunSpec, with a frame root in place of a body.
type BatchSpec struct {
	N      int
	Names  []int64 // nil assigns pid+1
	Model  shmem.Model
	Policy sched.Policy
	Plan   sched.CrashPlan // nil injects no crashes
	Root   func(p *shmem.Proc) Frame
}

// runReusing drives the spec on a recycled engine when the lane count still
// fits, constructing a fresh one otherwise; it returns the engine to recycle
// next.
func runReusing(e *Exec, sp BatchSpec) (*Exec, sched.Result) {
	if e == nil || e.N() != sp.N {
		e = New(sp.N, sp.Names, sp.Root)
	} else {
		e.Reset(sp.Names, sp.Root)
	}
	if !sp.Model.Atomic() {
		e.SetModel(sp.Model)
	}
	return e, e.Run(sp.Policy, sp.Plan)
}

// RunBatch executes m independent driven executions and returns their
// results in run order — sched.ParallelRuns's contract on the vectorized
// engine. mk is called once per run index, concurrently from the workers,
// and must return a self-contained spec. Because a vexec execution never
// parks, each worker drives its runs start to finish in one tight loop: the
// whole batch is cache-friendly straight-line work with no goroutine
// rendezvous anywhere, which is where the batched ≥10× over the goroutine
// engine comes from (see BENCH_PR7.json's vexec_batch section).
func RunBatch(m int, mk func(run int) BatchSpec) []sched.Result {
	if m <= 0 {
		return nil
	}
	results := make([]sched.Result, m)
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var e *Exec // recycled across this worker's runs (Exec.Reset)
			for {
				i := int(next.Add(1)) - 1
				if i >= m {
					return
				}
				e, results[i] = runReusing(e, mk(i))
			}
		}()
	}
	wg.Wait()
	return results
}
