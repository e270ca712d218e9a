package explore

// The race-analysis reference. Production source-DPOR reads its races off
// the incremental happens-before layer (hbState) alone; this file keeps the
// from-scratch rebuild it replaced and a test wrapper that walks the
// production strategy with its race update swapped for the rebuild, or for
// both checked against each other at every backtrack.

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// raceMode selects the race analysis a test walks.
type raceMode int

const (
	raceIncremental  raceMode = iota // the production layer alone
	raceRebuild                      // the from-scratch reference alone
	raceDifferential                 // both per backtrack, panicking on divergence
)

var raceModes = []raceMode{raceIncremental, raceRebuild, raceDifferential}

func (m raceMode) String() string {
	return [...]string{"incremental", "rebuild", "differential"}[m]
}

// sourceDPOR returns the source-DPOR strategy walking under mode: the
// production walker itself for raceIncremental, wrapped in a raceRef
// otherwise. Every mode must yield the same backtrack sets and so the same
// walk.
func sourceDPOR(budget, maxCrashes int, mode raceMode) Stateful {
	t := NewSourceDPOR(budget, maxCrashes)
	if mode == raceIncremental {
		return t
	}
	return &raceRef{SourceDPOR: t, mode: mode}
}

// raceRef is the production walker with BacktrackState's race update
// replaced; counting and retreat are the walker's own steps. In rebuild mode
// the incremental layer stays empty, so retreat's rewind of it is a no-op.
type raceRef struct {
	*SourceDPOR
	mode      raceMode
	scratch   raceScratch
	save, ref []uint64 // differential: btStep before and after the rebuild pass
}

// BacktrackState implements Stateful around the mode's race update, with the
// production update's guard against a trace that outran the frame stack.
func (r *raceRef) BacktrackState(c *vexec.Exec, tr sched.Trace, res sched.Result) bool {
	r.count()
	if len(tr) > len(r.stack) {
		panic(fmt.Sprintf("explore: trace (%d events) outran the frame stack (%d frames)", len(tr), len(r.stack)))
	}
	if r.mode == raceRebuild {
		r.updateRacesRebuild(tr)
	} else {
		r.updateRacesDiff(tr)
	}
	return r.retreat(c)
}

// updateRacesRebuild re-derives the relation from the whole trace and scans
// every pair, charging RaceEvents the whole trace per backtrack.
func (r *raceRef) updateRacesRebuild(tr sched.Trace) {
	if L := len(tr); L >= 2 {
		r.scratch.prepare(tr)
		r.stats.RaceEvents += L
		r.scanRaces(tr, &r.scratch, 1, L)
	}
}

// updateRacesDiff runs the rebuild against the current backtrack sets,
// captures what it produced, rewinds, runs the production update for real,
// and requires bit-identical backtrack sets, relation rows and direct rows.
// The rebuild pass also re-analyzes every pair below the incremental
// watermark — asserting, on every backtrack, that re-analysis is the no-op
// the incremental layer's suffix skip claims it is.
func (r *raceRef) updateRacesDiff(tr sched.Trace) {
	L := len(tr)
	watermark := r.hb.n
	r.save = growClear(r.save, L)
	for i := 0; i < L; i++ {
		r.save[i] = r.stack[i].btStep
	}
	if L >= 2 {
		r.scratch.prepare(tr)
		r.scanRaces(tr, &r.scratch, 1, L)
	}
	r.ref = growClear(r.ref, L)
	for i := 0; i < L; i++ {
		r.ref[i] = r.stack[i].btStep
		r.stack[i].btStep = r.save[i]
	}
	r.updateRaces(tr)
	for i := 0; i < L; i++ {
		if r.stack[i].btStep != r.ref[i] {
			panic(fmt.Sprintf("explore: race-analysis divergence at frame %d: incremental btStep %b, rebuild %b (watermark %d, trace %d)",
				i, r.stack[i].btStep, r.ref[i], watermark, L))
		}
	}
	if L < 2 {
		return
	}
	for j := 0; j < L; j++ {
		inc, ref := r.hb.eventRow(j), r.scratch.eventRow(j)
		incDir, refDir := r.hb.directRow(j), r.scratch.directRow(j)
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

// raceScratch is the from-scratch reference for the incremental
// happens-before layer: it re-derives the whole relation from a trace by an
// all-pairs pass over direct dependences, with buffers reused across
// executions.
type raceScratch struct {
	regKey map[any]int32 // register identity -> dense key for this trace
	keys   []int32       // per event: register key (-1 for crashes)
	writes []bool        // per event: the access was a write
	hb     []uint64      // L x words bitset: hb[j] = events happening-before j
	direct []uint64      // scratch row: the cover of hb[j], then hb[j] minus it
	words  int
}

// bit helpers over packed rows of width s.words.
func (s *raceScratch) row(r []uint64, j int) []uint64 { return r[j*s.words : (j+1)*s.words] }

// raceScratch implements hbRel so the production race scan and addSource run
// over the reference relation unchanged.
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
