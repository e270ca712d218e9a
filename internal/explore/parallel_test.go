package explore

import (
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// driveSharded runs a sharded parallel search over the raceSystem fixture
// and returns the union of outcomes plus the aggregate stats. OnResult runs
// concurrently across shards, so the collection is locked — the pattern
// real callers (internal/model) use.
func driveSharded(t *testing.T, mk func() Strategy, n, workers, maxCrashes int) (map[string]bool, Stats) {
	t.Helper()
	var mu sync.Mutex
	outcomes := make(map[string]bool)
	_, stateful := mk().(Stateful)
	st := DriveParallel(ParallelSpec{
		Workers:    workers,
		N:          n,
		MaxCrashes: maxCrashes,
		Probe: func() Config {
			sys := raceSystem(n)()
			return Config{N: n, Body: func(int) sched.Body { return sys.body }}
		},
		NewStrategy: mk,
		Config: func(shard int) Config {
			sys := raceSystem(n)()
			cfg := Config{
				N:    n,
				Body: func(run int) sched.Body { return sys.body },
				OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
					mu.Lock()
					outcomes[sys.fin(res)] = true
					mu.Unlock()
					return true
				},
			}
			if stateful {
				cfg.Frame = func(int) func(p *shmem.Proc) vexec.Frame { return sys.frame }
				cfg.Reset = sys.reset
			}
			return cfg
		},
	})
	return outcomes, st
}

// TestParallelDriveMatchesSequential is the soundness fixture for the
// sharded drive (CI runs it under -race): for both tree engines, fanning
// the root decisions across 4 workers must reach every outcome the
// sequential search reaches — with and without crash branching — and still
// report a complete walk.
func TestParallelDriveMatchesSequential(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name       string
		maxCrashes int
		mk         func() Strategy
	}{
		{"sourcedpor", 0, func() Strategy { return NewSourceDPOR(1, 0, 0) }},
		{"sourcedpor-crash", n - 1, func() Strategy { return NewSourceDPOR(1, 0, n-1) }},
		{"sleepset", 0, func() Strategy { return NewSleepSet(1, 0, 0) }},
		{"sleepset-crash", n - 1, func() Strategy { return NewSleepSet(1, 0, n-1) }},
	} {
		seqOutcomes, seqStats := driveTree(t, tc.mk(), n, raceSystem(n))
		if !seqStats.Complete {
			t.Fatalf("%s: sequential walk incomplete: %+v", tc.name, seqStats)
		}
		parOutcomes, parStats := driveSharded(t, tc.mk, n, 4, tc.maxCrashes)
		if !parStats.Complete {
			t.Fatalf("%s: sharded walk incomplete: %+v", tc.name, parStats)
		}
		for o := range seqOutcomes {
			if !parOutcomes[o] {
				t.Fatalf("%s: outcome %q reached sequentially but not by the sharded walk", tc.name, o)
			}
		}
	}
}

// TestParallelDriveShardsCoverEveryRoot: with one worker per root the shard
// enumeration itself is exercised; the walk must still be complete and
// count at least one execution per root decision.
func TestParallelDriveShardsCoverEveryRoot(t *testing.T) {
	const n = 3
	_, st := driveSharded(t, func() Strategy { return NewSourceDPOR(1, 0, n-1) }, n, 2*n, n-1)
	if !st.Complete {
		t.Fatalf("sharded walk incomplete: %+v", st)
	}
	if st.Executions < 2*n {
		t.Fatalf("%d executions over %d shards: some shard ran nothing", st.Executions, 2*n)
	}
}
