package adversary

import (
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/xrand"
)

// Fault-model adversaries: the families behind FaultFamilies(). Each one
// attacks a capability the shmem.Model knob can open — weak register
// semantics, crash-recovery, op-level latency — and is, like every family, a
// deterministic function of its seed, so (family, n, seed) reproducer lines
// replay bit-for-bit. The model a family needs rides on Family.Model and is
// threaded to the engine by drive, so a pasted reproducer
// line re-creates not just the schedule but the fault semantics it ran under.

// StaleReader is the weak-register adversary: uniform random scheduling,
// plus a seeded coin for every read that has stale alternatives (the read
// overlapped writes to its register). Heads returns the fresh value; tails
// picks uniformly among the stale choices — pre-overwrite values under
// regular semantics, those plus the Null junk read under safe.
type StaleReader struct {
	rng *xrand.Rand
}

// NewStaleReader returns a seeded stale-reading policy.
func NewStaleReader(seed uint64) *StaleReader {
	return &StaleReader{rng: xrand.New(seed)}
}

// Next implements sched.Policy: uniform over the pending set.
func (s *StaleReader) Next(e sched.Engine) int {
	return sched.NthBit(e.Pending(), s.rng.Intn(e.PendingCount()))
}

// PickStale implements sched.StalePolicy.
func (s *StaleReader) PickStale(e sched.Engine, pid, count int) int {
	if s.rng.Float64() < 0.5 {
		return 0 // fresh
	}
	return 1 + s.rng.Intn(count)
}

// Restarter is the crash-recovery adversary's plan half: random crashes (a
// seeded coin per decision, bounded by maxCrashes total) combined with
// restarts under a seeded per-process quota and a seeded per-crash delay —
// the process stays down for a few scheduling decisions before re-entering,
// so survivors observe both the mid-operation wreckage and the restarted
// process's catch-up writes.
type Restarter struct {
	rng        *xrand.Rand
	prob       float64
	maxCrashes int
	crashed    int
	quota      []int // per-pid restart allowance
	delay      []int // remaining offers to decline while down; -1 = not drawn
}

// NewRestarter builds the plan for n processes: crash probability prob per
// decision up to maxCrashes crashes in total, with each process granted a
// seeded restart quota of 1 or 2.
func NewRestarter(seed uint64, n int, prob float64, maxCrashes int) *Restarter {
	rng := xrand.New(seed)
	r := &Restarter{
		rng:        rng,
		prob:       prob,
		maxCrashes: maxCrashes,
		quota:      make([]int, n),
		delay:      make([]int, n),
	}
	for i := range r.quota {
		r.quota[i] = 1 + rng.Intn(2)
		r.delay[i] = -1
	}
	return r
}

// ShouldCrash implements sched.CrashPlan.
func (r *Restarter) ShouldCrash(pid int, steps int64, intent shmem.Intent) bool {
	if r.crashed >= r.maxCrashes {
		return false
	}
	if r.rng.Float64() < r.prob {
		r.crashed++
		return true
	}
	return false
}

// ShouldRestart implements sched.RestartPlan. The first offer after a crash
// draws the downtime (0-3 declined offers); the restart fires when it
// expires, provided the process still has quota. The controller's global
// restart budget (Model.MaxRestarts) caps the total independently.
func (r *Restarter) ShouldRestart(pid int, restarts int) bool {
	if restarts >= r.quota[pid] {
		return false
	}
	if r.delay[pid] < 0 {
		r.delay[pid] = r.rng.Intn(4)
	}
	if r.delay[pid] > 0 {
		r.delay[pid]--
		return false
	}
	r.delay[pid] = -1 // redraw on the next crash
	return true
}

// OpDelayer is the op-level latency adversary: it targets one seeded
// (process, operation) pair and holds that single pending register operation
// for up to k grants of other processes while the rest of the system runs —
// the op stays posted the whole time, so every intent-inspecting participant
// sees it coming. Away from the target it schedules uniformly at random.
// Unlike Starver it delays one operation, not a process: once the held op is
// granted the victim is scheduled like everyone else.
type OpDelayer struct {
	rng    *xrand.Rand
	victim int
	others except // everyone but the victim
	op     int64  // the victim's op index to hold (its op-th register access)
	hold   int    // grants of others remaining while the target op is held
}

// NewOpDelayer builds the policy for n processes: the victim, the operation
// index (0-7) and the hold length (1-6 grants) are all drawn from the seed.
func NewOpDelayer(seed uint64, n int) *OpDelayer {
	rng := xrand.New(seed)
	victim := rng.Intn(n)
	return &OpDelayer{
		rng:    rng,
		victim: victim,
		others: newExcept(n, victim),
		op:     int64(rng.Intn(8)),
		hold:   1 + rng.Intn(6),
	}
}

// Next implements sched.Policy. While the hold is active, the victim's
// target op is pending, and anyone else is pending, grant the others; a
// sole-pending victim is granted (the run must terminate — the remaining
// hold is simply forfeited, as for a victim that crashes or finishes early).
func (d *OpDelayer) Next(e sched.Engine) int {
	pending := e.Pending()
	if d.hold > 0 && sched.HasBit(pending, d.victim) && e.Proc(d.victim).Steps() == d.op {
		free := d.others.filter(pending)
		if free == 0 {
			return d.victim
		}
		d.hold--
		return sched.NthBit(d.others.free, d.rng.Intn(free))
	}
	return sched.NthBit(pending, d.rng.Intn(e.PendingCount()))
}
