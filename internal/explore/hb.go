package explore

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// This file is the incremental happens-before layer, the one production
// implementation of SourceDPOR's race analysis. The relation is search state:
// one packed row per trace event, appended as the DFS commits grants and
// truncated to the restored frame's watermark on backtrack, exactly like the
// engines truncate their recorded trace on Restore. Each updateRaces call
// then analyzes only the suffix since the last one. The path it replaced
// re-derived the whole relation from the trace at every backtrack:
// O(L²·words) bit work per explored leaf, which BENCH_PR8.json measured at
// ~40% of a stateful walk. That rebuild survives in the package's tests
// (raceScratch) as the reference a test wrapper walks alone or checks this
// layer against at every backtrack.
//
// Correctness hinges on three facts, all exercised by that differential and
// the FuzzIncrementalHB arm:
//
//   - Spanning edges suffice. An event's row is the union of the rows (plus
//     the events themselves) of: its process's previous event, the register's
//     last write, and — for a write — the reads of the register since that
//     write. Every direct dependence edge of the full relation (same process,
//     or same register with a write involved) is reachable through these:
//     earlier same-process events chain through the previous one; earlier
//     writes chain through the last write; earlier reads are direct edges of
//     the first write after them, which is in the last write's causal past.
//     So the rows are bit-identical to the all-pairs rebuild's.
//
//   - Direct edges are spanning-edge sources. An event's row is its sources
//     plus their rows, so every element of the row lies at or below one of
//     the sources, and the union of the rows of the row's elements (the
//     cover the race scan would subtract) is exactly the union of the
//     sources' rows. The direct (Hasse) predecessors are therefore the
//     sources outside that union: link records them per event as the row is
//     built, and the scan reads them instead of re-deriving the cover from
//     every earlier row.
//
//   - Re-analyzing an old pair is a no-op. Backtrack-set bits are monotone
//     over a frame's lifetime, and addSource adds nothing once a weak initial
//     of the race is scheduled or done — so the pairs (i, j) with j below the
//     watermark, analyzed by an earlier call against the same frames, need
//     not be revisited (the differential re-analyzes them to assert exactly
//     that).

// hbRel is the read surface the race scan and addSource consume. hbState
// implements it, and so does the tests' from-scratch reference, so one scan
// serves both.
type hbRel interface {
	// eventRow returns event j's packed happens-before row.
	eventRow(j int) []uint64
	// directRow returns event j's direct (Hasse) predecessors as a packed row
	// of the same width: the events of row j not below any other event of
	// row j. It is valid until the next directRow call.
	directRow(j int) []uint64
	// depends reports a direct dependence edge m -> k of the digested trace.
	depends(tr sched.Trace, m, k int) bool
}

// hbState is the incremental happens-before relation over the stateful
// walk's in-flight trace. It mirrors the engines' trace buffers exactly:
// extend digests the events the last dispatches appended, truncate rewinds to
// the watermark a Restore rewound the trace to. The register intern table is
// persistent for the whole walk — sound because the stateful drive builds its
// engine once and never recycles it (see the prefix guard in extend).
type hbState struct {
	regKey map[any]int32 // register identity -> dense key, persistent per walk

	// Per-event columns, parallel to the digested trace prefix [0, n).
	keys   []int32  // register key; -1 for crash/restart events
	writes []bool   // the access was a write
	pids   []int32  // granted process
	prevP  []int32  // previous event of the same process; -1 none
	prevW  []int32  // writes only: previous write to the same register; -1 none
	rows   []uint64 // n rows of width stride: row j = events happening-before j
	dirs   []uint64 // n rows of width stride: row j = j's direct predecessors

	// Frontiers, rewound through the prev chains on truncate.
	lastEvt []int32   // per process: its latest event; -1 none
	lastW   []int32   // per register key: latest write; -1 none
	acc     [][]int32 // per register key: its accesses, in trace order

	stride int // words per row (capacity; rows re-lay when n outgrows it)
	n      int // events digested
}

func (h *hbState) eventRow(j int) []uint64  { return h.rows[j*h.stride : (j+1)*h.stride] }
func (h *hbState) directRow(j int) []uint64 { return h.dirs[j*h.stride : (j+1)*h.stride] }

// depends reports a direct dependence edge m -> k: same process (program
// order), or accesses to the same register that are not both reads. Crashes
// and restarts touch no register and depend only on their own process.
func (h *hbState) depends(tr sched.Trace, m, k int) bool {
	if tr[m].Pid == tr[k].Pid {
		return true
	}
	if h.keys[m] < 0 || h.keys[k] < 0 {
		return false
	}
	return h.keys[m] == h.keys[k] && (h.writes[m] || h.writes[k])
}

// grow makes room for L events: per-event columns at length >= L, rows and
// direct rows at width >= (L+63)/64 words. Widening re-lays the digested rows
// into the new stride; both growth directions are geometric so a whole walk
// amortizes to O(1) per event.
func (h *hbState) grow(L int) {
	need := (L + 63) / 64
	if need > h.stride {
		ns := h.stride
		if ns == 0 {
			ns = 1
		}
		for ns < need {
			ns *= 2
		}
		h.rows = h.relay(h.rows, max(L, 2*h.n), ns)
		h.dirs = h.relay(h.dirs, max(L, 2*h.n), ns)
		h.stride = ns
	}
	if len(h.rows) < L*h.stride {
		h.rows = h.relay(h.rows, 2*L, h.stride)
		h.dirs = h.relay(h.dirs, 2*L, h.stride)
	}
	if len(h.keys) < L {
		grow := L - len(h.keys)
		h.keys = append(h.keys, make([]int32, grow)...)
		h.writes = append(h.writes, make([]bool, grow)...)
		h.pids = append(h.pids, make([]int32, grow)...)
		h.prevP = append(h.prevP, make([]int32, grow)...)
		h.prevW = append(h.prevW, make([]int32, grow)...)
	}
}

// relay copies the h.n digested rows of src into a fresh buffer of capacity
// rows at width stride.
func (h *hbState) relay(src []uint64, rows, stride int) []uint64 {
	dst := make([]uint64, rows*stride)
	for j := 0; j < h.n; j++ {
		copy(dst[j*stride:j*stride+h.stride], src[j*h.stride:(j+1)*h.stride])
	}
	return dst
}

// extend digests tr's new suffix [h.n, len(tr)), building each event's row
// from its spanning edges and advancing the frontiers. The row first gathers
// the sources' rows; a source not already in that union is a direct
// predecessor (see the file comment), recorded in the event's direct row
// before the sources themselves join the row.
func (h *hbState) extend(tr sched.Trace) {
	L := len(tr)
	if h.n > L {
		panic(fmt.Sprintf("explore: happens-before layer holds %d events but the trace has %d — truncate missed a backtrack", h.n, L))
	}
	if h.regKey == nil {
		h.regKey = make(map[any]int32)
	}
	h.assertPrefix(tr)
	h.grow(L)
	for j := h.n; j < L; j++ {
		e := tr[j]
		pid := e.Pid
		for pid >= len(h.lastEvt) {
			h.lastEvt = append(h.lastEvt, -1)
		}
		h.pids[j] = int32(pid)
		p := h.lastEvt[pid]
		h.prevP[j] = p
		lw := int32(-1)
		var reads []int32
		if e.Crash || e.Restart {
			// Crashes and restarts touch no register: program order only.
			h.keys[j], h.writes[j], h.prevW[j] = -1, false, -1
		} else {
			k, ok := h.regKey[e.Reg]
			if !ok {
				k = int32(len(h.regKey))
				h.regKey[e.Reg] = k
			}
			for int(k) >= len(h.acc) {
				h.acc = append(h.acc, nil)
				h.lastW = append(h.lastW, -1)
			}
			h.keys[j] = k
			w := e.Op == shmem.OpWrite
			h.writes[j] = w
			lw = h.lastW[k]
			if w {
				// A write also races the reads since that last write; reads
				// before it are already in its causal past.
				a := h.acc[k]
				t := len(a)
				for t > 0 && a[t-1] > lw {
					t--
				}
				reads = a[t:]
				h.prevW[j] = lw
				h.lastW[k] = int32(j)
			} else {
				h.prevW[j] = -1
			}
			h.acc[k] = append(h.acc[k], int32(j))
		}
		h.lastEvt[pid] = int32(j)
		h.link(j, p, lw, reads)
	}
	h.n = L
}

// link builds event j's row and direct row from its spanning-edge sources:
// its process's previous event p and the register's last write lw (-1 for
// none), and for a write the reads since lw. A source inside another
// source's row is an indirect predecessor; the rest are the direct ones.
func (h *hbState) link(j int, p, lw int32, reads []int32) {
	row, dir := h.eventRow(j), h.directRow(j)
	clear(row)
	clear(dir)
	if p >= 0 {
		rowOr(row, h.eventRow(int(p)))
	}
	if lw >= 0 {
		rowOr(row, h.eventRow(int(lw)))
	}
	for _, m := range reads {
		rowOr(row, h.eventRow(int(m)))
	}
	if p >= 0 && !rowGet(row, int(p)) {
		rowSet(dir, int(p))
	}
	if lw >= 0 && !rowGet(row, int(lw)) {
		rowSet(dir, int(lw))
	}
	for _, m := range reads {
		if !rowGet(row, int(m)) {
			rowSet(dir, int(m))
		}
	}
	rowOr(row, dir)
}

// assertPrefix is the cross-reset differential guard: the suffix contract
// says events [0, h.n) are exactly the ones digested earlier, which only
// holds while the walk drives one engine instance. An engine recycled
// mid-walk (Exec.Reset hands out fresh register objects from the new
// instance) or a diverged replay surfaces as a mismatch at the boundary
// event rather than as silently split register keys masking races.
func (h *hbState) assertPrefix(tr sched.Trace) {
	if h.n == 0 {
		return
	}
	j := h.n - 1
	e := tr[j]
	key := int32(-1)
	if !e.Crash && !e.Restart {
		k, ok := h.regKey[e.Reg]
		if !ok {
			k = -2 // never-interned identity: cannot match any digested key
		}
		key = k
		if (e.Op == shmem.OpWrite) != h.writes[j] {
			panic(fmt.Sprintf("explore: happens-before prefix diverged at event %d: op changed under the layer", j))
		}
	}
	if int32(e.Pid) != h.pids[j] || key != h.keys[j] {
		panic(fmt.Sprintf("explore: happens-before prefix diverged at event %d (pid %d key %d, digested pid %d key %d) — engine recycled mid-walk?",
			j, e.Pid, key, h.pids[j], h.keys[j]))
	}
}

// truncate rewinds the relation to w events — the watermark of the frame the
// walk just restored to — by walking the removed events newest-first and
// popping each one off its frontiers through the prev chains. Rows need no
// clearing; link clears on append. A watermark at or past the digested
// prefix is a no-op (the layer may lag the trace when analysis was skipped on
// a sub-2-event execution).
func (h *hbState) truncate(w int) {
	if w < 0 {
		panic(fmt.Sprintf("explore: happens-before truncate to %d", w))
	}
	for j := h.n - 1; j >= w; j-- {
		h.lastEvt[h.pids[j]] = h.prevP[j]
		if k := h.keys[j]; k >= 0 {
			a := h.acc[k]
			if a[len(a)-1] != int32(j) {
				panic(fmt.Sprintf("explore: happens-before access stack corrupt at event %d", j))
			}
			h.acc[k] = a[:len(a)-1]
			if h.writes[j] {
				h.lastW[k] = h.prevW[j]
			}
		}
	}
	if w < h.n {
		h.n = w
	}
}
