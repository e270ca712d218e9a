package vexec_test

// Restore puts a moved lane back by copying its saved frames when the
// lane's root frame is a vexec.Cloner, and by catch-up replay otherwise.
// Replay is the reference path: these tests hold the copy path to it, hold
// every Cloner's Save and Load to a complete, alias-free copy, and check
// that the conformance frames never fall back to replay silently.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/explore"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// restoreModels are the fault models the copy-vs-replay differential covers.
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
	pid := e.NthPending(rng.Intn(e.PendingCount()))
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
	reads         []int64 // scalar words; Ref reads log as -1
	done, crashed bool
	ret           int64
	retOK         bool
	got           int64
	ok            bool
	intent        shmem.Intent // zero unless pending
}

// point is the engine's observable state at a decision point.
type point struct {
	sh      [2]uint64
	fp      uint64
	pending []int
	lanes   []lanePoint
}

func observe(e *vexec.Exec, got []int64, oks []bool, hash bool) point {
	pt := point{fp: e.Fingerprint(), pending: e.PendingInto(nil)}
	if hash {
		pt.sh = e.StateHash()
	}
	for pid := 0; pid < e.N(); pid++ {
		p := e.Proc(pid)
		lp := lanePoint{steps: p.Steps(), restarts: p.Restarts(), done: e.Done(pid), crashed: e.Crashed(pid), got: got[pid], ok: oks[pid]}
		for i := 0; i < p.ReadLogLen(); i++ {
			w, ref := p.ReadWord(i)
			if ref {
				w = -1
			}
			lp.reads = append(lp.reads, w)
		}
		lp.ret, lp.retOK = e.Returned(pid)
		if slices.Contains(pt.pending, pid) {
			lp.intent = e.Intent(pid)
		}
		pt.lanes = append(pt.lanes, lp)
	}
	return pt
}

// TestRestoreCopyMatchesReplay is the copy path's differential against the
// reference path. Over randomized traces of every conformance case and
// fault model it checkpoints at every decision point, then restores the
// checkpoints deepest first, each one twice: by copy, and with catch-up
// replay forced. Both restores must land on the captured state — StateHash,
// fingerprint, pending set, intents, read logs and outcomes — and identical
// continuations from them must be bit-identical.
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
					var want []point
					crashes := 0
					for {
						snaps = append(snaps, e.Checkpoint())
						want = append(want, observe(e, got, oks, true))
						if !faultStep(e, rng, md.m, &crashes, n-1) {
							break
						}
					}
					for i := len(snaps) - 1; i >= 0; i-- {
						var ends [2]point
						for arm, replay := range []bool{false, true} {
							e.ForceReplay(replay)
							e.Restore(snaps[i], reset)
							if pt := observe(e, got, oks, true); !reflect.DeepEqual(pt, want[i]) {
								t.Fatalf("trial %d, checkpoint %d, replay=%v: restored\n%+v\ncaptured\n%+v", trial, i, replay, pt, want[i])
							}
							crng := xrand.New(xrand.Mix(seed, uint64(i)))
							cc := 0
							for faultStep(e, crng, md.m, &cc, n-1) {
							}
							// Ref write stamps are fresh on every branch, so
							// only scalar-register states hash alike.
							ends[arm] = observe(e, got, oks, scalarOnly[c.Name])
						}
						e.ForceReplay(false)
						if !reflect.DeepEqual(ends[0], ends[1]) {
							t.Fatalf("trial %d, checkpoint %d: continuation after copy\n%+v\nafter replay\n%+v", trial, i, ends[0], ends[1])
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
// equals empty) in different backing arrays, except where shared is set: a
// snapshot update's view, which is immutable once built.
func copyDiff(a, b reflect.Value, path string, shared bool) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			sh := strings.HasPrefix(a.Type().Name(), "UpdateFrame[") && f.Name == "view"
			if d := copyDiff(a.Field(i), b.Field(i), path+"."+f.Name, sh); d != "" {
				return d
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := copyDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), shared); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d, copy %d", path, a.Len(), b.Len())
		}
		if a.Len() > 0 && a.Pointer() == b.Pointer() && !shared {
			return path + ": copy shares the backing array"
		}
		for i := 0; i < a.Len(); i++ {
			if d := copyDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), shared); d != "" {
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
		return copyDiff(a.Elem(), b.Elem(), path, shared)
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
					for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
						root := e.LaneRoot(pid).(vexec.Cloner)
						rv := reflect.ValueOf(root).Elem()
						saved[pid] = root.Save(saved[pid])
						if d := copyDiff(rv, reflect.ValueOf(saved[pid]).Elem(), "Save", false); d != "" {
							t.Fatalf("trial %d, step %d, lane %d: %s", trial, step, pid, d)
						}
						fresh := reflect.New(rv.Type()).Interface().(vexec.Cloner)
						if loaded[pid] == nil {
							loaded[pid] = reflect.New(rv.Type()).Interface().(vexec.Cloner)
						}
						for _, dst := range []vexec.Cloner{fresh, loaded[pid]} {
							dst.Load(saved[pid])
							if d := copyDiff(rv, reflect.ValueOf(dst).Elem(), "Load", false); d != "" {
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
// — most of the prove benchmark — restores every moved lane by copy. Every
// catch-up re-roots its lane through the root builder, so counting the
// builder's calls counts catch-ups: across the walk's tens of thousands of
// restores it must run only for the n initial spawns, and no catch-up grant
// is replayed. The walk is the pinned one (TestProveWalkCountsPinned).
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
	stats := explore.Drive(explore.NewSourceDPOR(1, 0, 1), explore.Config{
		N:     n,
		Names: func(int) []int64 { return tc.Origs(n, 1) },
		Frame: func(int) func(p *shmem.Proc) vexec.Frame {
			return func(p *shmem.Proc) vexec.Frame {
				roots++
				return vexec.Capture(fr.FrameRename(p.Name()), &got[p.ID()], &oks[p.ID()])
			}
		},
		Reset: func(pid int) { got[pid], oks[pid] = 0, false },
	})
	if !stats.Complete || stats.Executions != 35470 || stats.Restored != 80357 {
		t.Fatalf("not the pinned walk: complete=%v, %d executions, %d restores", stats.Complete, stats.Executions, stats.Restored)
	}
	if roots != n {
		t.Fatalf("%d restores caught up %d lanes by replay, want 0", stats.Restored, roots-n)
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
		e.Step(e.NextPending(-1))
		for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
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
