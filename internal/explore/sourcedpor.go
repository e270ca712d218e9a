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
// and optional exhaustive crash branching, driven over one persistent vexec
// engine through checkpoint/restore. It differs from the stateless Tree
// engine (NewSleepSet) in two ways:
//
//   - Backtrack points come from source sets: each node starts with one
//     enabled process, and for a race between events e_i and e_j it
//     schedules one *initial* of the sub-sequence leading to e_j — and
//     nothing at all when the backtrack set already contains one — instead
//     of every enabled process. Fewer scheduled points, same guarantee: at
//     least one representative per Mazurkiewicz trace.
//
//   - Each node carries the engine's checkpoint (*vexec.Snapshot);
//     backtracking restores it in O(changes since the node) rather than
//     re-executing the O(depth) prefix, so Stats.Replayed is zero by
//     construction and Stats.Restored counts the restores.
//
// No node is ever cut by a state hash: a state reached along two
// inequivalent schedules is walked both times, so a complete walk is an
// exact proof, with no hash in the verdict.
//
// Like the stateless engines it pins every execution to one instance seed:
// the search is over the schedules of a single deterministic system.
type SourceDPOR struct {
	seed       uint64
	budget     int // executions (complete + partial) cap; 0 = exhaust
	maxCrashes int // crash-branching cap per execution; 0 = schedule-only

	stack     []sframe
	resumeAt  int // frame whose freshly picked choice executes next; -1 none
	abandoned bool
	rootPin   *Choice
	race      RaceAnalysis
	hb        hbState     // incremental happens-before layer (RaceIncremental)
	scratch   raceScratch // from-scratch reference (RaceRebuild)
	diffSave  []uint64    // RaceDifferential: btStep snapshots across the two runs
	diffRef   []uint64
	stats     Stats
}

// sframe extends the shared tree frame with the node's engine checkpoint.
type sframe struct {
	frame
	snap *vexec.Snapshot
}

// NewSourceDPOR returns the stateful source-set DPOR strategy. budget caps
// executions (complete + partial); 0 exhausts the reduced tree, at which
// point Stats().Complete reports the proof. maxCrashes enables exhaustive
// crash branching up to the cap (crash choices are never source-reduced —
// each is its own branch, as in NewSleepSet). seed pins the instance.
func NewSourceDPOR(seed uint64, budget, maxCrashes int) *SourceDPOR {
	return &SourceDPOR{
		seed:       seed,
		budget:     budget,
		maxCrashes: maxCrashes,
		resumeAt:   -1,
	}
}

// SetRaceAnalysis selects the race-analysis implementation (the zero value,
// RaceIncremental, is the default). Every mode yields the same backtrack sets
// and the same walk; RaceRebuild re-derives the relation per backtrack (the
// measured reference), RaceDifferential runs both and panics on divergence.
// Returns the receiver.
func (t *SourceDPOR) SetRaceAnalysis(m RaceAnalysis) *SourceDPOR {
	t.race = m
	return t
}

// PinRoot restricts the search to the subtree under one root decision, for
// sharding a tree across DriveParallel workers: every enabled root choice is
// some worker's pin, so the union of the shards covers the tree. Races that
// would schedule other root choices are dropped locally — the partition
// already owns them.
func (t *SourceDPOR) PinRoot(ch Choice) { t.rootPin = &ch }

// Name implements Strategy.
func (t *SourceDPOR) Name() string { return "sourcedpor" }

// RunSeed implements Seeder: one deterministic system per search.
func (t *SourceDPOR) RunSeed(run int) uint64 { return t.seed }

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
	var parent *frame
	if len(t.stack) > 0 {
		parent = &t.stack[len(t.stack)-1].frame
	}
	fr, pruned := openFrame(c, parent)
	t.stats.Pruned += pruned
	f := sframe{frame: fr}
	if t.rootPin != nil && len(t.stack) == 0 {
		bit := uint64(1) << uint(t.rootPin.Pid)
		f.btRestart = 0
		f.haltBt = false
		switch {
		case t.rootPin.Restart:
			f.btRestart = bit & f.restartable
		case t.rootPin.Crash:
			f.btCrash = bit & f.enabled
		default:
			f.btStep = bit & f.enabled
		}
	} else {
		// Source mode: the backtrack set starts with one arbitrary (lowest
		// awake) enabled process; race analysis grows it. Crash branching is
		// exhaustive within the budget.
		if first := f.enabled &^ f.doneStep; first != 0 {
			f.btStep = first & (-first)
		}
		if t.maxCrashes > 0 && f.crashesBefore < t.maxCrashes {
			f.btCrash = f.enabled
		}
	}
	if !pickNext(&f.frame) {
		t.abandoned = true
		return Abandon
	}
	f.snap = c.Checkpoint()
	t.stack = append(t.stack, f)
	t.commit(c, &t.stack[len(t.stack)-1])
	return f.chosen
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

// BacktrackState implements Stateful: fold the finished execution's races
// into the backtrack sets, pop exhausted frames, and restore the engine to
// the deepest frame with an unexplored scheduled choice.
func (t *SourceDPOR) BacktrackState(c *vexec.Exec, tr sched.Trace, res sched.Result, reset func(pid int)) bool {
	if t.abandoned {
		t.abandoned = false
		t.stats.Partial++
	} else {
		t.stats.Executions++
	}
	t.updateRaces(tr)
	if t.budget > 0 && t.stats.Executions+t.stats.Partial >= t.budget {
		return false
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		f := &t.stack[i]
		if !frameOpen(&f.frame) {
			// The frame is fully explored: its checkpoint will never be
			// restored again, so the engine may recycle the capture.
			c.ReleaseState(f.snap)
			f.snap = nil
			t.stack = t.stack[:i]
			continue
		}
		t.stack = t.stack[:i+1]
		c.Restore(f.snap, reset)
		t.stats.Restored++
		if t.race != RaceRebuild {
			// Frame i's checkpoint was taken at trace length i, and Restore
			// truncated the engine's trace buffer to that watermark; rewind
			// the happens-before layer in lockstep. The TraceLen cross-check
			// ties the layer's watermark to the engine's actual cursor — a
			// frame/trace misalignment would silently corrupt the relation.
			if got := c.TraceLen(); got != i {
				panic(fmt.Sprintf("explore: engine trace holds %d events after restoring frame %d", got, i))
			}
			t.hb.truncate(i)
		}
		pickNext(&f.frame)
		t.resumeAt = i
		return true
	}
	t.stats.Complete = true
	return false
}

// raceScratch holds the per-execution race-analysis buffers, reused across
// executions so the hot search loop stays allocation-light.
type raceScratch struct {
	regKey map[any]int32 // register identity -> dense key for this trace
	keys   []int32       // per event: register key (-1 for crashes)
	writes []bool        // per event: the access was a write
	hb     []uint64      // L x words bitset: hb[j] = events happening-before j
	direct []uint64      // scratch row: the cover of hb[j], then hb[j] minus it
	words  int
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

// bit helpers over packed rows of width s.words.
func (s *raceScratch) row(r []uint64, j int) []uint64 { return r[j*s.words : (j+1)*s.words] }

// raceScratch implements hbRel so the shared race scan runs over either the
// from-scratch relation or the incremental layer.
func (s *raceScratch) eventRow(j int) []uint64 { return s.row(s.hb, j) }

// directRow derives event j's direct predecessors from the whole relation:
// hb[j] minus the union of hb[m] over every m in hb[j]. It is the reference
// the incremental layer's spanning-edge shortcut (hbState.directRow) is
// checked against.
func (s *raceScratch) directRow(j int) []uint64 {
	hbj := s.eventRow(j)
	dir := s.direct[:s.words]
	clear(dir)
	for w, word := range hbj {
		for word != 0 {
			m := w<<6 + trailingZeros(word)
			word &= word - 1
			rowOr(dir, s.eventRow(m))
		}
	}
	for w := range dir {
		dir[w] = hbj[w] &^ dir[w]
	}
	return dir
}

func rowGet(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }
func rowSet(row []uint64, i int)      { row[i>>6] |= 1 << (uint(i) & 63) }
func rowOr(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

// prepare digests a trace: dense register keys (interface comparisons are
// the profile's hot spot — one map lookup per event replaces O(L²) of them)
// and the happens-before relation as bitsets, computed by one transitive
// pass over direct dependences (same process, or non-commuting accesses).
func (s *raceScratch) prepare(tr sched.Trace) {
	L := len(tr)
	if s.regKey == nil {
		s.regKey = make(map[any]int32)
	}
	clear(s.regKey)
	s.keys = growClear(s.keys, L)
	s.writes = growClear(s.writes, L)
	for j, e := range tr {
		if e.Crash || e.Restart {
			s.keys[j] = -1
			continue
		}
		k, ok := s.regKey[e.Reg]
		if !ok {
			k = int32(len(s.regKey))
			s.regKey[e.Reg] = k
		}
		s.keys[j] = k
		s.writes[j] = e.Op == shmem.OpWrite
	}
	s.words = (L + 63) / 64
	s.hb = growClear(s.hb, L*s.words)
	s.direct = growClear(s.direct, s.words)
	for j := 1; j < L; j++ {
		hbj := s.row(s.hb, j)
		for m := 0; m < j; m++ {
			if s.depends(tr, m, j) {
				rowOr(hbj, s.row(s.hb, m))
				rowSet(hbj, m)
			}
		}
	}
}

// depends reports a direct dependence edge m -> k: same process (program
// order), or accesses to the same register that are not both reads. Crashes
// touch no register and depend only on their own process.
func (s *raceScratch) depends(tr sched.Trace, m, k int) bool {
	if tr[m].Pid == tr[k].Pid {
		return true
	}
	if s.keys[m] < 0 || s.keys[k] < 0 {
		return false
	}
	return s.keys[m] == s.keys[k] && (s.writes[m] || s.writes[k])
}

// updateRaces grows backtrack sets from the executed trace with source sets,
// dispatching to the configured race-analysis implementation (see
// RaceAnalysis) and accounting the work: RaceEvents counts the
// happens-before rows derived — the whole trace per leaf for the rebuild
// reference, only the new suffix for the incremental layer.
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
	start := time.Now()
	switch t.race {
	case RaceRebuild:
		if L >= 2 {
			t.scratch.prepare(tr)
			t.stats.RaceEvents += L
			t.scanRaces(tr, &t.scratch, 1, L)
		}
	case RaceDifferential:
		t.updateRacesDiff(tr)
	default:
		watermark := t.hb.n
		t.hb.extend(tr)
		t.stats.RaceEvents += L - watermark
		t.scanRaces(tr, &t.hb, watermark, L)
	}
	t.stats.RaceNs += time.Since(start).Nanoseconds()
}

// updateRacesDiff is the RaceDifferential body: run the from-scratch
// reference against the current backtrack sets, capture what it produced,
// rewind, run the incremental layer for real, and require bit-identical
// backtrack sets, relation rows and direct rows. The rebuild pass also
// re-analyzes every pair below the incremental watermark — asserting, on
// every backtrack of every fuzzed walk, that re-analysis is the no-op the
// incremental mode's suffix skip claims it is.
func (t *SourceDPOR) updateRacesDiff(tr sched.Trace) {
	L := len(tr)
	t.diffSave = growClear(t.diffSave, L)
	for i := 0; i < L; i++ {
		t.diffSave[i] = t.stack[i].btStep
	}
	if L >= 2 {
		t.scratch.prepare(tr)
		t.scanRaces(tr, &t.scratch, 1, L)
	}
	t.diffRef = growClear(t.diffRef, L)
	for i := 0; i < L; i++ {
		t.diffRef[i] = t.stack[i].btStep
		t.stack[i].btStep = t.diffSave[i]
	}
	watermark := t.hb.n
	t.hb.extend(tr)
	t.stats.RaceEvents += L - watermark
	t.scanRaces(tr, &t.hb, watermark, L)
	for i := 0; i < L; i++ {
		if t.stack[i].btStep != t.diffRef[i] {
			panic(fmt.Sprintf("explore: race-analysis divergence at frame %d: incremental btStep %b, rebuild %b (watermark %d, trace %d)",
				i, t.stack[i].btStep, t.diffRef[i], watermark, L))
		}
	}
	if L >= 2 {
		for j := 0; j < L; j++ {
			inc, ref := t.hb.eventRow(j), t.scratch.eventRow(j)
			incDir, refDir := t.hb.directRow(j), t.scratch.directRow(j)
			for i := 0; i < L; i++ {
				if rowGet(inc, i) != rowGet(ref, i) {
					panic(fmt.Sprintf("explore: happens-before divergence at pair (%d, %d): incremental %v, rebuild %v",
						i, j, rowGet(inc, i), rowGet(ref, i)))
				}
				if rowGet(incDir, i) != rowGet(refDir, i) {
					panic(fmt.Sprintf("explore: direct-edge divergence at pair (%d, %d): spanning-edge %v, cover scan %v",
						i, j, rowGet(incDir, i), rowGet(refDir, i)))
				}
			}
		}
	}
}

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
	if t.rootPin != nil && i == 0 {
		return // root choices are owned by the shard partition
	}
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
		if f.staleN == nil || f.staleN[pid] == 0 {
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
		f.staleN = make([]uint8, c.N())
		f.varCur = make([]uint8, c.N())
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
