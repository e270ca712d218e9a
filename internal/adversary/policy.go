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
	"math/bits"

	"repro/internal/sched"
	"repro/internal/xrand"
)

// Starver starves a victim set: as long as any non-victim is pending, the
// victims make no progress (chosen uniformly among the non-victims); only
// when the victims are the whole pending set do they step. It is the maximal
// legal starvation an asynchronous adversary can impose — wait-freedom says
// the victims' step bounds must hold anyway.
type Starver struct {
	victims except
	rng     *xrand.Rand
}

// NewStarver builds a starvation policy over n processes with the given
// victims. Picks among eligible processes are seed-deterministic.
func NewStarver(seed uint64, n int, victims ...int) *Starver {
	return &Starver{victims: newExcept(n, victims...), rng: xrand.New(seed)}
}

// Next implements sched.Policy: one draw, uniform over the pending
// non-victims, or over the whole pending set when only victims are left.
func (s *Starver) Next(e sched.Engine) int {
	if free := s.victims.filter(e.Pending()); free > 0 {
		return sched.NthBit(s.victims.free, s.rng.Intn(free))
	}
	return sched.NthBit(e.Pending(), s.rng.Intn(e.PendingCount()))
}

// except is a policy's fixed set of excluded pids as bit words, with
// scratch words for the pending pids outside it.
type except struct {
	mask, free []uint64
}

// newExcept builds the exclusion words of pids over n processes.
func newExcept(n int, pids ...int) except {
	x := except{mask: make([]uint64, (n+63)/64), free: make([]uint64, (n+63)/64)}
	for _, pid := range pids {
		x.mask[pid>>6] |= 1 << (uint(pid) & 63)
	}
	return x
}

// filter sets x.free to pending &^ x.mask and returns how many bits it holds.
func (x *except) filter(pending []uint64) int {
	c := 0
	for w, word := range pending {
		x.free[w] = word &^ x.mask[w]
		c += bits.OnesCount64(x.free[w])
	}
	return c
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

// Next implements sched.Policy off the engine's reader words: it
// reservoir-samples the pending readers in ascending order (one draw per
// reader), and the writers the same way when no reader is pending.
func (w *WriteBlocker) Next(e sched.Engine) int {
	if pid := w.reservoir(e.PendingReads()); pid >= 0 {
		return pid
	}
	// All pending processes are writers; release one at random.
	return w.reservoir(e.Pending())
}

// reservoir samples the set bits of words in ascending order, one
// draw per bit, and returns the chosen one (-1 for empty words).
func (w *WriteBlocker) reservoir(words []uint64) int {
	chosen, seen := -1, 0
	for i, word := range words {
		for ; word != 0; word &= word - 1 {
			seen++
			if w.rng.Intn(seen) == 0 {
				chosen = i<<6 + bits.TrailingZeros64(word)
			}
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
	pending := e.Pending()
	live := cl.active[:0]
	for _, pid := range cl.active {
		if sched.HasBit(pending, pid) {
			live = append(live, pid)
		}
	}
	cl.active = live
	for len(cl.active) < cl.k && cl.next < len(cl.order) {
		pid := cl.order[cl.next]
		cl.next++
		if sched.HasBit(pending, pid) {
			cl.active = append(cl.active, pid)
		}
	}
	if len(cl.active) == 0 {
		// Everyone admissible has terminated; drain stragglers (possible only
		// if admission skipped a process that was mid-step at window checks).
		return sched.NthBit(pending, cl.rng.Intn(e.PendingCount()))
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
	pending := e.Pending()
	for scanned := 0; scanned <= len(l.cohorts); scanned++ {
		cohort := l.cohorts[l.ci]
		for l.mi < len(cohort) {
			pid := cohort[l.mi]
			l.mi++
			if sched.HasBit(pending, pid) {
				return pid
			}
		}
		l.mi = 0
		l.ci = (l.ci + 1) % len(l.cohorts)
	}
	return sched.NextBit(pending, -1)
}
