// Package adversary is the schedule-sampling engine: a library of hostile
// scheduling policies and crash plans modeling the paper's asynchronous
// adversary, an Explore driver that fans seeded runs across workers and
// applies invariant suites from package check, and a shrinker that reduces a
// failing (family, n, seed) tuple to a minimal one-line reproducer. It
// samples the adversary's space at every size; proving a small size — a
// complete tree walk — is internal/model's job, and this package does not
// import the tree-search layer (internal/explore).
//
// The paper's bounds are claims over *every* schedule and crash pattern, so
// a single random policy exercises a vanishing corner of the adversary's
// power. Each policy here is built to attack a specific proof obligation:
// Starver maximizes asymmetry (wait-freedom), WriteBlocker inspects posted
// intents and suppresses writers (the Theorem 6 adversary's information),
// Collapse manufactures worst-case contention windows, and Lockstep drives
// the cohort-synchronous executions in which splitter and competition races
// are tightest. All are deterministic functions of a seed via xrand, so any
// run is replayable from its spec line.
package adversary

import (
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/xrand"
)

// Starver starves a victim set: as long as any non-victim is pending, the
// victims make no progress (chosen uniformly among the non-victims); only
// when the victims are the whole pending set do they step. It is the maximal
// legal starvation an asynchronous adversary can impose — wait-freedom says
// the victims' step bounds must hold anyway.
type Starver struct {
	victims []int // ascending, distinct
	rng     *xrand.Rand
}

// NewStarver builds a starvation policy over n processes with the given
// victims. Picks among eligible processes are seed-deterministic.
func NewStarver(seed uint64, n int, victims ...int) *Starver {
	isVictim := make([]bool, n)
	for _, v := range victims {
		isVictim[v] = true
	}
	s := &Starver{rng: xrand.New(seed)}
	for pid, v := range isVictim {
		if v {
			s.victims = append(s.victims, pid)
		}
	}
	return s
}

// Next implements sched.Policy: one draw, uniform over the pending
// non-victims, or over the whole pending set when only victims are left.
func (s *Starver) Next(e sched.Engine) int {
	pending, starved := e.PendingCount(), 0
	for _, v := range s.victims {
		if isPending(e, v) {
			starved++
		}
	}
	if starved == pending {
		return sched.NthPending(e, s.rng.Intn(pending))
	}
	return nthPendingExcept(e, s.rng.Intn(pending-starved), s.victims)
}

// isPending reports whether pid has a posted intent in e.
func isPending(e sched.Engine, pid int) bool { return e.NextPending(pid-1) == pid }

// nthPendingExcept returns the k-th (0-based, ascending) pending pid of e
// that is not in skip, an ascending list of pids: the pending pid of rank k,
// moved one pending pid further for every pending skipped pid at or below
// it. skip is ascending, so a pid the walk moves past is never revisited.
func nthPendingExcept(e sched.Engine, k int, skip []int) int {
	pid := sched.NthPending(e, k)
	for _, v := range skip {
		if v <= pid && isPending(e, v) {
			pid = e.NextPending(pid)
		}
	}
	return pid
}

// WriteBlocker is the intent-aware adversary: it grants pending readers
// (uniformly at random) for as long as any exist, releasing writers only
// when every pending process has a posted write. Competition protocols
// decide by writes, so this policy maximizes the information every process
// collects before any claim lands — the densest race the model allows.
type WriteBlocker struct {
	rng *xrand.Rand
}

// NewWriteBlocker returns a seeded write-blocking policy.
func NewWriteBlocker(seed uint64) *WriteBlocker {
	return &WriteBlocker{rng: xrand.New(seed)}
}

// Next implements sched.Policy via the intent-aware pending iterator: it
// reservoir-samples the readers in one bitmap walk (one draw per reader),
// and the writers the same way when no reader is pending.
func (w *WriteBlocker) Next(e sched.Engine) int {
	chosen, seen := -1, 0
	for pid := e.NextPendingKind(-1, shmem.OpRead); pid >= 0; pid = e.NextPendingKind(pid, shmem.OpRead) {
		seen++
		if w.rng.Intn(seen) == 0 {
			chosen = pid
		}
	}
	if chosen >= 0 {
		return chosen
	}
	// All pending processes are writers; release one at random.
	for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
		seen++
		if w.rng.Intn(seen) == 0 {
			chosen = pid
		}
	}
	return chosen
}

// Collapse keeps contention collapsed onto a window of at most k processes:
// only window members are scheduled, and a slot frees up only when its
// occupant finishes or crashes. Admission order is a seeded permutation. The
// effect is the paper's "collapse to k" adversary — an execution in which at
// most k processes are ever concurrently active, the regime the adaptive
// bounds (Theorems 3-4) are stated in.
type Collapse struct {
	k      int
	order  []int // admission order (seeded permutation of pids)
	active []int // current window, pids
	next   int   // next admission index into order
	rng    *xrand.Rand
}

// NewCollapse builds a collapse-to-k policy over n processes.
func NewCollapse(seed uint64, n, k int) *Collapse {
	if k < 1 {
		k = 1
	}
	rng := xrand.New(seed)
	return &Collapse{k: k, order: rng.Perm(n), active: make([]int, 0, k), rng: rng}
}

// Next implements sched.Policy. At a decision point every live process is
// pending, so a window member no longer pending has terminated.
func (cl *Collapse) Next(e sched.Engine) int {
	// Evict terminated members, then top the window up from the admission
	// order.
	live := cl.active[:0]
	for _, pid := range cl.active {
		if isPending(e, pid) {
			live = append(live, pid)
		}
	}
	cl.active = live
	for len(cl.active) < cl.k && cl.next < len(cl.order) {
		pid := cl.order[cl.next]
		cl.next++
		if isPending(e, pid) {
			cl.active = append(cl.active, pid)
		}
	}
	if len(cl.active) == 0 {
		// Everyone admissible has terminated; drain stragglers (possible only
		// if admission skipped a process that was mid-step at window checks).
		return sched.NthPending(e, cl.rng.Intn(e.PendingCount()))
	}
	return cl.active[cl.rng.Intn(len(cl.active))]
}

// Lockstep drives seeded cohorts in synchronized rounds: the pids are
// partitioned into cohorts of size g, and each round one cohort advances —
// every pending member takes exactly one step, in cohort order — before the
// rotation hands the next cohort its round. Members of a cohort therefore
// execute in tight lockstep while the other cohorts stall: the schedule
// family in which splitter doorways and competition pairs see maximal
// simultaneous occupancy, with cross-cohort starvation on top.
type Lockstep struct {
	cohorts [][]int
	ci      int // cohort whose round is in progress
	mi      int // next member index within that cohort's round
}

// NewLockstep partitions n processes into cohorts of size g (the last may be
// smaller) after a seeded shuffle.
func NewLockstep(seed uint64, n, g int) *Lockstep {
	if g < 1 {
		g = 1
	}
	order := xrand.New(seed).Perm(n)
	l := &Lockstep{}
	for start := 0; start < n; start += g {
		end := start + g
		if end > n {
			end = n
		}
		l.cohorts = append(l.cohorts, order[start:end])
	}
	return l
}

// Next implements sched.Policy: finish the current cohort's round, then
// rotate. A cohort with no pending member forfeits its round.
func (l *Lockstep) Next(e sched.Engine) int {
	// At most one full rotation is needed: some process is pending, so some
	// cohort has a pending member.
	for scanned := 0; scanned <= len(l.cohorts); scanned++ {
		cohort := l.cohorts[l.ci]
		for l.mi < len(cohort) {
			pid := cohort[l.mi]
			l.mi++
			if isPending(e, pid) {
				return pid
			}
		}
		l.mi = 0
		l.ci = (l.ci + 1) % len(l.cohorts)
	}
	return e.NextPending(-1)
}
