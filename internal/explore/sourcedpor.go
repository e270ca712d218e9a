package explore

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// SourceDPOR is the stateful tree search: source-set dynamic partial-order
// reduction (Abdulla, Aronis, Jonsson, Sagonas, POPL 2014) with sleep sets
// and optional crash branching, driven over one persistent vexec engine
// through checkpoint/restore. It differs from the stateless Tree engine
// (NewSleepSet) in three ways:
//
//   - Backtrack points come from source sets: each node starts with one
//     enabled process, and for a race between events e_i and e_j it
//     schedules one *initial* of the sub-sequence leading to e_j — and
//     nothing at all when the backtrack set already contains one — instead
//     of every enabled process. Fewer scheduled points, same guarantee: at
//     least one representative per Mazurkiewicz trace.
//
//   - Crash branching is exhaustive except for dead branches: a scheduled
//     crash whose subtree provably holds no execution, only sleep-blocked
//     prefixes, is marked done unwalked and counted in Stats.Pruned (see
//     settleDeadCrashes). The walk reaches the same Mazurkiewicz classes,
//     one execution each; under the recovery model every crash is walked.
//
//   - Each node a backtrack can return to carries the engine's checkpoint
//     (*vexec.Snapshot); backtracking restores it in O(changes since the
//     node) rather than re-executing the O(depth) prefix, so Stats.Replayed
//     is zero by construction and Stats.Restored counts the restores. A
//     node with one enabled process and no open choice can never reopen,
//     so it takes no checkpoint.
//
// No node is ever cut by a state hash: a state reached along two
// inequivalent schedules is walked both times, so a complete walk is an
// exact proof, with no hash in the verdict.
type SourceDPOR struct {
	budget     int // executions (complete + partial) cap; 0 = exhaust
	maxCrashes int // crash-branching cap per execution; 0 = schedule-only

	stack     []sframe
	resumeAt  int // frame whose freshly picked choice executes next; -1 none
	abandoned bool
	hb        hbState // incremental happens-before layer the races are read off
	raceCalls int     // updateRaces calls so far, for sampling the race timer
	stats     Stats
}

// sframe extends the shared tree frame with the node's engine checkpoint.
type sframe struct {
	frame
	snap *vexec.Snapshot
}

// NewSourceDPOR returns the stateful source-set DPOR strategy. budget caps
// executions (complete + partial); 0 exhausts the reduced tree, at which
// point Stats().Complete reports the proof. maxCrashes enables crash
// branching up to the cap (crash choices are never source-reduced — each is
// its own branch, as in NewSleepSet — but dead ones are settled unwalked).
func NewSourceDPOR(budget, maxCrashes int) *SourceDPOR {
	return &SourceDPOR{
		budget:     budget,
		maxCrashes: maxCrashes,
		resumeAt:   -1,
	}
}

// Stats implements Strategy.
func (t *SourceDPOR) Stats() Stats { return t.stats }

// Backtrack implements Strategy for interface completeness; the stateful
// drive calls BacktrackState instead.
func (t *SourceDPOR) Backtrack(tr sched.Trace, res sched.Result) bool {
	panic("explore: SourceDPOR must be driven statefully (BacktrackState)")
}

// Next implements Strategy. Unlike the stateless Tree there is no replay
// phase: the engine is already at the frontier, so Next either commits the
// choice BacktrackState just picked or opens a new node. The stateful walk
// needs the checkpoint surface, so the engine is the *vexec.Exec Drive's
// stateful path builds.
func (t *SourceDPOR) Next(eng sched.Engine) Choice {
	c := eng.(*vexec.Exec)
	if t.resumeAt >= 0 {
		f := &t.stack[t.resumeAt]
		t.resumeAt = -1
		t.commit(c, f)
		return f.chosen
	}
	// The node's frame is built in its stack slot: taken after push, since a
	// push that grows the stack moves every frame.
	f, below := push(&t.stack)
	var parent *frame
	if below != nil {
		parent = &below.frame
	}
	t.stats.Pruned += openFrame(c, &f.frame, parent)
	// Source mode: the backtrack set starts with one arbitrary (lowest awake)
	// enabled process; race analysis grows it. Crash branching is exhaustive
	// within the budget.
	if first := f.enabled &^ f.doneStep; first != 0 {
		f.btStep = first & (-first)
	}
	if t.maxCrashes > 0 && f.crashesBefore < t.maxCrashes {
		f.btCrash = f.enabled
	}
	t.settleDeadCrashes(c, &f.frame)
	if !pickNext(&f.frame) {
		t.stack = t.stack[:len(t.stack)-1]
		t.abandoned = true
		return Abandon
	}
	// A closed node with one enabled process is never restored: addSource
	// schedules only enabled processes, and that one's step is done.
	if frameOpen(&f.frame) || bits.OnesCount64(f.enabled) != 1 {
		f.snap = c.Checkpoint()
	}
	t.commit(c, f)
	return f.chosen
}

// settleDeadCrashes marks done, unwalked, every scheduled crash of f whose
// subtree holds no execution. A crash of p commutes with every other
// process's events, so the child inherits f's done steps and crashes as
// sleep entries; below it crashes only shrink the enabled set. If every
// other enabled process (rest) has its step done or asleep, the only way to
// finish is to crash all of rest, which is impossible when rest outnumbers
// the crashes left or one of its crashes is done or asleep. Such a subtree
// is crash events only, which race analysis skips. Under recovery a crashed
// process can restart, so nothing is settled.
func (t *SourceDPOR) settleDeadCrashes(c *vexec.Exec, f *frame) {
	if f.btCrash&^f.doneCrash == 0 || c.Model().Recovery {
		return
	}
	left := t.maxCrashes - f.crashesBefore - 1
	for m := f.btCrash &^ f.doneCrash; m != 0; m &= m - 1 {
		p := m & -m
		rest := f.enabled &^ p
		if rest&^f.doneStep == 0 && (bits.OnesCount64(rest) > left || rest&f.doneCrash != 0) {
			f.doneCrash |= p
			t.stats.Pruned++
		}
	}
}

// commit finalizes an about-to-execute choice on its frame: refresh the
// posted intent (live — the engine is at the frame's state) and count the
// decision.
func (t *SourceDPOR) commit(c sched.Engine, f *sframe) {
	// Restarts carry no intent (the process is crashed) and Halt grants
	// nothing.
	if !f.chosen.Restart && f.chosen.Pid >= 0 {
		f.chosenIn = c.Intent(f.chosen.Pid)
	}
	t.stats.Explored++
}

// BacktrackState implements Stateful: count the finished execution, fold its
// races into the backtrack sets, and retreat to the deepest frame with an
// unexplored scheduled choice.
func (t *SourceDPOR) BacktrackState(c *vexec.Exec, tr sched.Trace, res sched.Result, reset func(pid int)) bool {
	t.count()
	t.updateRaces(tr)
	return t.retreat(c, reset)
}

// count tallies the execution that just ended: partial when the walk
// abandoned it as sleep-blocked, complete otherwise.
func (t *SourceDPOR) count() {
	if t.abandoned {
		t.abandoned = false
		t.stats.Partial++
	} else {
		t.stats.Executions++
	}
}

// retreat ends the walk at the budget, pops exhausted frames, and restores
// the engine to the deepest frame with an unexplored scheduled choice,
// rewinding the happens-before layer with it.
func (t *SourceDPOR) retreat(c *vexec.Exec, reset func(pid int)) bool {
	if t.budget > 0 && t.stats.Executions+t.stats.Partial >= t.budget {
		return false
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		f := &t.stack[i]
		t.settleDeadCrashes(c, &f.frame)
		if !frameOpen(&f.frame) {
			// The frame is fully explored: its checkpoint will never be
			// restored again, so the engine may recycle the capture.
			if f.snap != nil {
				c.ReleaseState(f.snap)
				f.snap = nil
			}
			t.stack = t.stack[:i]
			continue
		}
		if f.snap == nil {
			panic(fmt.Sprintf("explore: frame %d reopened without a checkpoint", i))
		}
		t.stack = t.stack[:i+1]
		c.Restore(f.snap, reset)
		t.stats.Restored++
		// Frame i's checkpoint was taken at trace length i, and Restore
		// truncated the engine's trace buffer to that watermark; rewind the
		// happens-before layer in lockstep. The TraceLen cross-check ties the
		// layer's watermark to the engine's actual cursor — a frame/trace
		// misalignment would silently corrupt the relation.
		if got := c.TraceLen(); got != i {
			panic(fmt.Sprintf("explore: engine trace holds %d events after restoring frame %d", got, i))
		}
		t.hb.truncate(i)
		pickNext(&f.frame)
		t.resumeAt = i
		return true
	}
	t.stats.Complete = true
	return false
}

// growClear resizes buf to length n with every element zeroed, reusing the
// backing array when it is big enough — the allocation-free replacement for
// the append(buf[:0], make([]T, n)...) idiom, which allocates the zero slice
// it copies from on every call.
func growClear[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func rowGet(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }
func rowSet(row []uint64, i int)      { row[i>>6] |= 1 << (uint(i) & 63) }
func rowOr(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

// updateRaces grows backtrack sets from the executed trace with source sets:
// it digests the suffix the happens-before layer has not seen, scans the
// races whose later event lies in it, and accounts the work — RaceEvents
// counts the happens-before rows derived, one per new trace event.
func (t *SourceDPOR) updateRaces(tr sched.Trace) {
	L := len(tr)
	// The trace can never outrun the frame stack: Next pushes exactly one
	// frame per node it opens, every dispatched choice (step, stale variant,
	// crash, restart) appends exactly one trace event against that node's
	// frame, and the two choices that append nothing (Halt, and the Abandon
	// of a sleep-blocked node) push no frame or leave theirs
	// undispatched on top. So len(stack) >= L always — the stack runs one
	// PAST the trace when the top frame's choice was Halt. The former clamp
	// here (L = min(L, len(stack))) guarded the impossible direction by
	// silently dropping trailing events from race analysis; make any future
	// regression loud instead. Pinned by TestTraceNeverOutrunsStack.
	if L > len(t.stack) {
		panic(fmt.Sprintf("explore: trace (%d events) outran the frame stack (%d frames)", L, len(t.stack)))
	}
	// Only every raceSample-th call is timed (see Stats.RaceNs).
	timed := t.raceCalls%raceSample == 0
	t.raceCalls++
	var start time.Time
	if timed {
		start = time.Now()
	}
	watermark := t.hb.n
	t.hb.extend(tr)
	t.stats.RaceEvents += L - watermark
	t.scanRaces(tr, &t.hb, watermark, L)
	if timed {
		t.stats.RaceNs += raceSample * time.Since(start).Nanoseconds()
	}
}

// raceSample is the sampling period of the race-analysis timer.
const raceSample = 16

// scanRaces finds the races among the trace's direct (Hasse) happens-before
// edges and feeds each to addSource. A race is a DIRECT edge between events
// of different processes: i in hb[j] but not covered by any intermediate
// event of hb[j] (non-direct dependent pairs are reached inductively through
// the direct ones — the classic DPOR race relation), read off
// rel.directRow(j). Only pairs whose later event j lies in [from, L) are
// scanned: the caller passes 0 (or 1 — event 0 has no predecessors) to scan a
// whole trace, or the incremental watermark to scan just the suffix the last
// call has not seen.
func (t *SourceDPOR) scanRaces(tr sched.Trace, rel hbRel, from, L int) {
	if from < 1 {
		from = 1
	}
	for j := from; j < L; j++ {
		if tr[j].Crash || tr[j].Restart {
			continue // crashes and restarts commute with every other-process event
		}
		for w, direct := range rel.directRow(j) {
			for direct != 0 {
				i := w<<6 + trailingZeros(direct)
				direct &= direct - 1
				if tr[i].Pid != tr[j].Pid && !tr[i].Crash && !tr[i].Restart {
					t.addSource(i, j, tr, rel)
				}
			}
		}
	}
}

// addSource schedules one weak initial of v = notdep(i, tr)·tr[j] at frame
// i. Events happening-after tr[i] are not in v — except tr[j] itself, which
// is in v by construction.
func (t *SourceDPOR) addSource(i, j int, tr sched.Trace, rel hbRel) {
	f := &t.stack[i]
	inV := func(k int) bool { return k == j || !rowGet(rel.eventRow(k), i) }
	var initials uint64
	for k := i + 1; k <= j; k++ {
		if !inV(k) {
			continue
		}
		// k is an initial of v iff no v-predecessor depends on it. Direct
		// dependence suffices: a transitive chain into k has a direct last
		// link, which cannot leave v (events outside v happen-after e_i, and
		// anything after them would too).
		first := true
		for m := i + 1; m < k; m++ {
			if inV(m) && rel.depends(tr, m, k) {
				first = false
				break
			}
		}
		if first {
			initials |= 1 << uint(tr[k].Pid)
		}
	}
	if initials == 0 {
		panic(fmt.Sprintf("explore: race (%d,%d) with empty initials", i, j))
	}
	if (f.btStep|f.doneStep)&initials != 0 {
		// An initial is already scheduled or explored: race covered. This
		// includes an initial mid-way through pickNext's stale-variant loop —
		// such a pid sits in btStep with doneStep clear until its last
		// variant, and scheduling the pid explores every variant, so the
		// race's source-set obligation (some initial scheduled at this node)
		// is met without a second bit.
		return
	}
	if en := initials & f.enabled; en != 0 {
		f.btStep |= en & (-en)
	} else {
		// No initial is enabled at the node: fall back to scheduling every
		// enabled process — the sound over-approximation the stateless
		// engine always uses. This branch cannot fire while an initial is
		// done or mid-variant-loop: btStep and doneStep only ever hold
		// enabled pids, so an empty initials∩enabled implies the covered
		// check above already saw nothing. A disabled initial itself is only
		// reachable under the recovery model (the pid was crashed at this
		// node and restarted before its contribution to v) — pinned by
		// TestSourceDPORWeakInitials{Stale,Recovery}.
		f.btStep |= f.enabled
	}
}

// trailingZeros is bits.TrailingZeros64 under a name that does not collide
// with the package's math/bits import alias usage elsewhere.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// pickNext selects the next unexplored scheduled transition of f (steps
// before crashes, then halt, then restarts; ascending pid), marks it done,
// and installs it as f.chosen. A step whose pending read has stale variants
// (frame.staleN) is picked repeatedly — fresh first, then each stale choice —
// and only its last variant marks the pid done. Shared with the stateless
// Tree engine.
func pickNext(f *frame) bool {
	if avail := f.btStep &^ f.doneStep; avail != 0 {
		pid := bits.TrailingZeros64(avail)
		if len(f.staleN) == 0 || f.staleN[pid] == 0 {
			f.doneStep |= 1 << uint(pid)
			f.chosen = Choice{Pid: pid}
			return true
		}
		v := int(f.varCur[pid])
		f.varCur[pid]++
		if int(f.varCur[pid]) > int(f.staleN[pid]) {
			f.doneStep |= 1 << uint(pid)
		}
		f.chosen = Choice{Pid: pid, Stale: v}
		return true
	}
	if avail := f.btCrash &^ f.doneCrash; avail != 0 {
		pid := bits.TrailingZeros64(avail)
		f.doneCrash |= 1 << uint(pid)
		f.chosen = Choice{Pid: pid, Crash: true}
		return true
	}
	if f.haltBt && !f.haltDone {
		f.haltDone = true
		f.chosen = Halt
		return true
	}
	if avail := f.btRestart &^ f.doneRestart; avail != 0 {
		pid := bits.TrailingZeros64(avail)
		f.doneRestart |= 1 << uint(pid)
		f.chosen = Choice{Pid: pid, Restart: true}
		return true
	}
	return false
}

// frameOpen reports whether f still has an unexplored scheduled choice.
func frameOpen(f *frame) bool {
	if (f.btStep&^f.doneStep)|(f.btCrash&^f.doneCrash)|(f.btRestart&^f.doneRestart) != 0 {
		return true
	}
	return f.haltBt && !f.haltDone
}

// faultOpen seeds a frame's fault-model branching from the live engine:
// the restartable mask (scheduled exhaustively, like crashes), the Halt
// branch of pending-free nodes, and the stale-variant counts of every
// enabled pending read. No-op under the default model.
func faultOpen(c sched.Engine, f *frame) {
	m := c.Model()
	if m.Recovery {
		f.restartable = restartableMask(c)
		f.btRestart = f.restartable
		if f.enabled == 0 && f.restartable != 0 {
			f.haltBt = true
		}
	}
	if m.Regs != shmem.RegAtomic && f.enabled != 0 {
		f.staleN = growClear(f.staleN, c.N())
		f.varCur = growClear(f.varCur, c.N())
		for e := f.enabled; e != 0; e &= e - 1 {
			pid := bits.TrailingZeros64(e)
			if k := c.StaleCount(pid); k > 0 {
				if k > 255 {
					k = 255
				}
				f.staleN[pid] = uint8(k)
			}
		}
	}
}
