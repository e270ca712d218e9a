package vexec_test

// Restore puts a moved lane back by copying its saved frames: every root
// frame under state capture is a vexec.Cloner. These tests hold restore to
// a reference that shares no code with it — a fresh engine driven through
// the same trace prefix with sched.ApplyTraceTo — and hold every Cloner's
// Save and Load to a complete, alias-free copy.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/compete"
	"repro/internal/conformance"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// restoreModels are the fault models the restore differential covers.
var restoreModels = []struct {
	name string
	m    shmem.Model
}{
	{"atomic", shmem.Model{}},
	{"regular", shmem.Model{Regs: shmem.RegRegular}},
	{"safe", shmem.Model{Regs: shmem.RegSafe}},
	{"recovery", shmem.Model{Recovery: true}},
	{"safe-recovery", shmem.Model{Regs: shmem.RegSafe, Recovery: true}},
}

// faultStep takes one random decision over the model's whole repertoire —
// step, stale read, crash, restart — and reports false when no decision is
// left. crashes counts the drive's crashes against maxCrashes.
func faultStep(e *vexec.Exec, rng *xrand.Rand, m shmem.Model, crashes *int, maxCrashes int) bool {
	restart := func() bool {
		for pid := 0; pid < e.N(); pid++ {
			if e.CanRestart(pid) {
				e.Restart(pid)
				return true
			}
		}
		return false
	}
	if e.PendingCount() == 0 {
		return restart()
	}
	if m.Recovery && rng.Intn(6) == 0 && restart() {
		return true
	}
	pid := sched.NthBit(e.Pending(), rng.Intn(e.PendingCount()))
	switch {
	case *crashes < maxCrashes && rng.Intn(8) == 0:
		*crashes++
		e.Crash(pid)
	case m.Regs != shmem.RegAtomic && e.StaleCount(pid) > 0 && rng.Intn(2) == 0:
		e.StepStale(pid, rng.Intn(e.StaleCount(pid)))
	default:
		e.Step(pid)
	}
	return true
}

// lanePoint is one lane's observable state at a decision point.
type lanePoint struct {
	steps         int64
	restarts      int
	done, crashed bool
	ret           int64
	retOK         bool
	got           int64
	ok            bool
	kind          shmem.OpKind // the posted intent's kind; zero unless pending
	stale         []int64      // StaleVals of the pending read
}

// point is the engine's observable state at a decision point. Register
// identities are per instance, so the trace is compared by its rendering,
// which leaves them out.
type point struct {
	fp      uint64
	grants  int64
	trace   string
	pending []int
	lanes   []lanePoint
}

func observe(e *vexec.Exec, got []int64, oks []bool) point {
	pt := point{fp: e.Fingerprint(), grants: e.Grants(), trace: e.Trace().String(), pending: sched.Pending(e, nil)}
	for pid := 0; pid < e.N(); pid++ {
		p := e.Proc(pid)
		lp := lanePoint{steps: p.Steps(), restarts: p.Restarts(), done: e.Done(pid), crashed: e.Crashed(pid), got: got[pid], ok: oks[pid]}
		lp.ret, lp.retOK = e.Returned(pid)
		if slices.Contains(pt.pending, pid) {
			lp.kind = e.Intent(pid).Kind
			lp.stale = e.StaleVals(pid, nil)
		}
		pt.lanes = append(pt.lanes, lp)
	}
	return pt
}

// rootsDiff compares every lane's root Save copy on engine a with the one on
// engine b, in one stateWalk shared by all lanes, and describes the first
// difference.
func rootsDiff(a, b *vexec.Exec) string {
	w := stateWalk{seen: map[stateKey]bool{}}
	for pid := 0; pid < a.N(); pid++ {
		ra, rb := a.LaneRoot(pid), b.LaneRoot(pid)
		if (ra == nil) != (rb == nil) {
			return fmt.Sprintf("lane %d: root present %v, reference %v", pid, ra != nil, rb != nil)
		}
		if ra == nil {
			continue
		}
		sa, sb := ra.(vexec.Cloner).Save(nil), rb.(vexec.Cloner).Save(nil)
		if d := w.diff(reflect.ValueOf(sa), reflect.ValueOf(sb)); d != "" {
			return fmt.Sprintf("lane %d root%s", pid, d)
		}
	}
	return ""
}

// stateKey is one pair of objects a stateWalk has compared.
type stateKey struct {
	a, b unsafe.Pointer
	t    reflect.Type
}

// stateWalk is a deep equality walk over the state of two independently
// built instances. Unlike copyDiff it follows pointers, so it compares what
// a frame points at — register contents among it — and not addresses. Each
// pair of objects is compared once, which also cuts cycles.
type stateWalk struct{ seen map[stateKey]bool }

// diff returns "" when a and b hold equal state, or the path to the first
// difference and what differs there.
func (w *stateWalk) diff(a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		if t := a.Type(); t.PkgPath() == "sync/atomic" && strings.HasPrefix(t.Name(), "Pointer[") {
			// atomic.Pointer[T] keeps its *T as an unsafe.Pointer; its
			// zero-length first field carries T.
			elem := t.Field(0).Type.Elem().Elem()
			return w.ptr(a.Field(2).UnsafePointer(), b.Field(2).UnsafePointer(), elem)
		}
		for i := 0; i < a.NumField(); i++ {
			if d := w.diff(a.Field(i), b.Field(i)); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": length %d, reference %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := w.diff(a.Index(i), b.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return ": nil mismatch"
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf(": dynamic type %s, reference %s", a.Elem().Type(), b.Elem().Type())
		}
		return w.diff(a.Elem(), b.Elem())
	case reflect.Pointer:
		return w.ptr(a.UnsafePointer(), b.UnsafePointer(), a.Type().Elem())
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(": %v, reference %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d, reference %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf(": %d, reference %d", a.Uint(), b.Uint())
		}
	default:
		return fmt.Sprintf(": unhandled kind %s", a.Kind())
	}
	return ""
}

// pageType is the type of one page of a compete.Field, which the field
// installs on the first touch of one of its pairs.
var pageType = func() reflect.Type {
	f, ok := reflect.TypeOf(compete.Field{}).FieldByName("pages")
	if !ok {
		panic("compete.Field has no pages")
	}
	// An atomic.Pointer[T]'s zero-length first field carries T.
	return f.Type.Elem().Field(0).Type.Elem().Elem()
}()

// ptr compares the objects of type t at pa and pb. A page of a
// compete.Field that only one side installed is compared with a page of
// Null pairs: a restore rewinds the registers of a page installed after the
// checkpoint but leaves the page in place, so an uninstalled page and an
// all-Null one are the same state.
func (w *stateWalk) ptr(pa, pb unsafe.Pointer, t reflect.Type) string {
	if (pa == nil) != (pb == nil) && t == pageType {
		if pa == nil {
			pa = reflect.New(t).UnsafePointer()
		} else {
			pb = reflect.New(t).UnsafePointer()
		}
	}
	if pa == nil || pb == nil {
		if (pa == nil) != (pb == nil) {
			return ": nil mismatch"
		}
		return ""
	}
	k := stateKey{pa, pb, t}
	if pa == pb || w.seen[k] {
		return ""
	}
	w.seen[k] = true
	if d := w.diff(reflect.NewAt(t, pa).Elem(), reflect.NewAt(t, pb).Elem()); d != "" {
		return "->" + d
	}
	return ""
}

// TestStateWalkUninstalledPage holds the walk's one rule for lazily
// installed pages: a page only one side installed equals an uninstalled one
// while its pairs are Null, and a non-Null pair behind it is still flagged.
func TestStateWalkUninstalledPage(t *testing.T) {
	const m = 1 << 10 // many pages, 500 and 900 on different ones
	diff := func(a, b *compete.Field) string {
		w := stateWalk{seen: map[stateKey]bool{}}
		return w.diff(reflect.ValueOf(a), reflect.ValueOf(b))
	}
	a, b := compete.NewField(m), compete.NewField(m)
	a.Pair(500) // installs one of a's pages
	b.Pair(900)
	if d := diff(a, b); d != "" {
		t.Fatalf("installed all-Null pages differ from uninstalled ones: %s", d)
	}
	a.Pair(500).R.Poke(5)
	if d := diff(a, b); !strings.Contains(d, ".pages[") || !strings.Contains(d, ": 5, reference 0") {
		t.Fatalf("a non-Null pair behind a page only one side installed: diff %q", d)
	}
	a.Pair(500).R.Poke(shmem.Null)
	b.Pair(900).H.Poke(7)
	if d := diff(a, b); !strings.Contains(d, ".pages[") || !strings.Contains(d, ": 0, reference 7") {
		t.Fatalf("a non-Null pair behind a page only the reference installed: diff %q", d)
	}
}

// TestRestoreCopyMatchesReplay holds restore to a reference that shares no
// code with it. Over randomized traces of every conformance case and fault
// model it checkpoints at every decision point, then restores the
// checkpoints deepest first. After each restore a fresh engine of the same
// case, seed and model is driven through the captured trace prefix
// (sched.ApplyTraceTo), and the two must agree: fingerprint, grants, trace,
// pending set, intent kinds, stale choices, each lane's steps, restarts,
// phase and outcome, and each lane's root Save copy, compared by a walk that
// follows pointers and so compares register contents too. One seeded
// continuation on both engines must then give identical Results.
func TestRestoreCopyMatchesReplay(t *testing.T) {
	const n = 3
	for _, c := range conformance.Cases() {
		for _, md := range restoreModels {
			c, md := c, md
			t.Run(c.Name+"/"+md.name, func(t *testing.T) {
				t.Parallel()
				for trial := uint64(1); trial <= 3; trial++ {
					seed := trial * 0x9e3779b97f4a7c15
					e, got, oks := newVexec(t, c, n, seed, md.m, true)
					reset := func(pid int) { got[pid], oks[pid] = 0, false }
					rng := xrand.New(seed)
					var snaps []*vexec.Snapshot
					crashes := 0
					for {
						snaps = append(snaps, e.Checkpoint())
						if !faultStep(e, rng, md.m, &crashes, n-1) {
							break
						}
					}
					trace := e.Trace()
					for i := len(snaps) - 1; i >= 0; i-- {
						e.Restore(snaps[i], reset)
						f, fgot, foks := newVexec(t, c, n, seed, md.m, false)
						if err := sched.ApplyTraceTo(f, trace[:i]); err != nil {
							t.Fatalf("trial %d, checkpoint %d: reference replay: %v", trial, i, err)
						}
						if pt, want := observe(e, got, oks), observe(f, fgot, foks); !reflect.DeepEqual(pt, want) {
							t.Fatalf("trial %d, checkpoint %d: restored\n%+v\nreference\n%+v", trial, i, pt, want)
						}
						if d := rootsDiff(e, f); d != "" {
							t.Fatalf("trial %d, checkpoint %d: %s", trial, i, d)
						}
						var ends [2]sched.Result
						for arm, x := range []*vexec.Exec{e, f} {
							crng := xrand.New(xrand.Mix(seed, uint64(i)))
							cc := 0
							for faultStep(x, crng, md.m, &cc, n-1) {
							}
							ends[arm] = x.Result()
						}
						if !reflect.DeepEqual(ends[0], ends[1]) || !slices.Equal(got, fgot) || !slices.Equal(oks, foks) {
							t.Fatalf("trial %d, checkpoint %d: continuation after restore %+v %v %v, reference %+v %v %v",
								trial, i, ends[0], got, oks, ends[1], fgot, foks)
						}
					}
				}
			})
		}
	}
}

// copyDiff describes the first difference between frame state a and its
// copy b, or returns "". Pointers, maps and funcs must be identical (a copy
// shares what the frame points at); slices must hold equal elements (nil
// equals empty) in different backing arrays.
func copyDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if d := copyDiff(a.Field(i), b.Field(i), path+"."+f.Name); d != "" {
				return d
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := copyDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d, copy %d", path, a.Len(), b.Len())
		}
		if a.Len() > 0 && a.Pointer() == b.Pointer() {
			return path + ": copy shares the backing array"
		}
		for i := 0; i < a.Len(); i++ {
			if d := copyDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path + ": dynamic type mismatch"
		}
		return copyDiff(a.Elem(), b.Elem(), path)
	case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.Pointer() != b.Pointer() {
			return path + ": points elsewhere"
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v, copy %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d, copy %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d, copy %d", path, a.Uint(), b.Uint())
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %s", path, a.Kind())
	}
	return ""
}

// TestClonerSaveLoadRoundTrip holds every conformance root frame's Save and
// Load to a complete, alias-free copy: at every decision point of a random
// run, saving a pending lane's root (into a reused copy) must reproduce
// every field, and loading the copy into a fresh frame and into a reused one
// must reproduce it again — with no slice shared along the way.
func TestClonerSaveLoadRoundTrip(t *testing.T) {
	const n = 3
	for _, c := range conformance.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			for trial := uint64(1); trial <= 3; trial++ {
				seed := trial * 0x51ed2701
				fr := c.New(n, seed).(vexec.FrameRenamer)
				e := vexec.New(n, c.Origs(n, seed), func(p *shmem.Proc) vexec.Frame { return fr.FrameRename(p.Name()) })
				saved := make([]vexec.Frame, n)
				loaded := make([]vexec.Cloner, n)
				rng := xrand.New(seed)
				crashes := 0
				for step := 0; ; step++ {
					for pid := sched.NextBit(e.Pending(), -1); pid >= 0; pid = sched.NextBit(e.Pending(), pid) {
						root := e.LaneRoot(pid).(vexec.Cloner)
						rv := reflect.ValueOf(root).Elem()
						saved[pid] = root.Save(saved[pid])
						if d := copyDiff(rv, reflect.ValueOf(saved[pid]).Elem(), "Save"); d != "" {
							t.Fatalf("trial %d, step %d, lane %d: %s", trial, step, pid, d)
						}
						fresh := reflect.New(rv.Type()).Interface().(vexec.Cloner)
						if loaded[pid] == nil {
							loaded[pid] = reflect.New(rv.Type()).Interface().(vexec.Cloner)
						}
						for _, dst := range []vexec.Cloner{fresh, loaded[pid]} {
							dst.Load(saved[pid])
							if d := copyDiff(rv, reflect.ValueOf(dst).Elem(), "Load"); d != "" {
								t.Fatalf("trial %d, step %d, lane %d: %s", trial, step, pid, d)
							}
						}
					}
					if !faultStep(e, rng, shmem.Model{}, &crashes, 0) {
						break
					}
				}
			}
		})
	}
}

// TestEfficientWalkRestoresByCopy: the efficient n=2, crashes<=1 proof walk
// — most of the prove benchmark — restores every moved lane by loading its
// saved frames and never builds a frame to do it: across the walk's tens of
// thousands of restores the root builder runs only for the n initial
// spawns. The walk is the pinned one (TestProveWalkCountsPinned).
func TestEfficientWalkRestoresByCopy(t *testing.T) {
	var tc conformance.Case
	for _, c := range conformance.Cases() {
		if c.Name == "efficient" {
			tc = c
		}
	}
	const n = 2
	fr := tc.New(n, 1).(vexec.FrameRenamer)
	got, oks := make([]int64, n), make([]bool, n)
	roots := 0
	stats := explore.Drive(explore.NewSourceDPOR(0, 1), explore.Config{
		N:     n,
		Names: tc.Origs(n, 1),
		Frame: func(int) func(p *shmem.Proc) vexec.Frame {
			return func(p *shmem.Proc) vexec.Frame {
				roots++
				return vexec.Capture(fr.FrameRename(p.Name()), &got[p.ID()], &oks[p.ID()])
			}
		},
		Reset: func(pid int) { got[pid], oks[pid] = 0, false },
	})
	if !stats.Complete || stats.Executions != 35470 || stats.Restored != 35469 {
		t.Fatalf("not the pinned walk: complete=%v, %d executions, %d restores", stats.Complete, stats.Executions, stats.Restored)
	}
	if roots != n {
		t.Fatalf("the root builder ran %d times over %d restores, want only the %d initial spawns", roots, stats.Restored, n)
	}
}

// TestCheckpointWeakRegistersAllocsNothing: under a weak-register model a
// capture copies the pending reads' stale windows into the pooled
// snapshot's own buffers, so once warm, Checkpoint plus ReleaseState
// allocates nothing.
func TestCheckpointWeakRegistersAllocsNothing(t *testing.T) {
	var ff conformance.Case
	for _, c := range conformance.Cases() {
		if c.Name == "firstfit" {
			ff = c
		}
	}
	const n = 3
	e, _, _ := newVexec(t, ff, n, 1, shmem.Model{Regs: shmem.RegSafe}, true)
	stale := false
	for !stale && e.PendingCount() > 0 {
		e.Step(sched.NextBit(e.Pending(), -1))
		for pid := sched.NextBit(e.Pending(), -1); pid >= 0; pid = sched.NextBit(e.Pending(), pid) {
			stale = stale || e.StaleCount(pid) > 0
		}
	}
	if !stale {
		t.Fatal("no decision point with a stale window; the check is vacuous")
	}
	e.ReleaseState(e.Checkpoint())
	if a := testing.AllocsPerRun(100, func() { e.ReleaseState(e.Checkpoint()) }); a != 0 {
		t.Fatalf("Checkpoint+ReleaseState under safe registers allocates %.1f times, want 0", a)
	}
}

// TestGrantRestoreCycleAllocsNothing: once warm, a write grant pushes onto
// the undo log's reused backing array, and a grant → Checkpoint → write grant
// → Restore → ReleaseState cycle over scalar registers allocates nothing.
func TestGrantRestoreCycleAllocsNothing(t *testing.T) {
	var ff conformance.Case
	for _, c := range conformance.Cases() {
		if c.Name == "firstfit" {
			ff = c
		}
	}
	e, _, _ := newVexec(t, ff, 3, 1, shmem.Model{}, true)
	base := e.Checkpoint()
	cycle := func() {
		e.Step(sched.NextBit(e.Pending(), -1))
		s := e.Checkpoint()
		w := sched.NextBit(e.Pending(), -1)
		for w >= 0 && sched.HasBit(e.PendingReads(), w) {
			w = sched.NextBit(e.Pending(), w)
		}
		if w < 0 {
			t.Fatal("no pending writer after the first grant; the check is vacuous")
		}
		e.Step(w)
		e.Restore(s, nil)
		e.ReleaseState(s)
		e.Restore(base, nil)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("grant/Checkpoint/grant/Restore/ReleaseState allocates %.1f times per cycle, want 0", a)
	}
}
