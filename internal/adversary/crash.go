package adversary

import (
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/xrand"
)

// CrashOnWrite crashes processes at the most damaging instant the model
// allows: just before a posted write executes. A process that announced a
// claim (the write intent is visible to the adversary) dies with the claim
// never landing — the exact scenario in which sloppy competition protocols
// leak a name to two winners or strand a reservation. Each posted write is
// crashed with probability prob, up to maxCrashes in total, deterministically
// from seed.
func CrashOnWrite(seed uint64, prob float64, maxCrashes int) sched.CrashPlan {
	rng := xrand.New(seed)
	crashed := 0
	return sched.CrashPlanFunc(func(pid int, steps int64, intent shmem.Intent) bool {
		if crashed >= maxCrashes || intent.Kind != shmem.OpWrite {
			return false
		}
		if rng.Float64() < prob {
			crashed++
			return true
		}
		return false
	})
}
