package vexec_test

// A campaign worker re-arms its lanes' frames from run to run instead of
// building them (vexec.FrameRenamer's dst, through check.Instance.Reuse).
// The contract is that a re-armed frame runs exactly as a fresh one: same
// Result, trace and rename outcomes run for run, whatever state the previous
// run left the frame in — finished, or abandoned in the middle of a stage by
// a crash — and the results each instance collected from the engine stay
// where that instance holds them.

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// rearmFamilies are the adversaries of a re-armed worker's runs: a
// crash-free one, two that abandon frames mid-stage, and one whose restarts
// re-arm a lane's frame inside the run.
var rearmFamilies = []string{"random", "crashhalf", "crashwrite", "crashrestart"}

// rearmRun is one run of a worker's sequence: the instance it ran and what
// it produced.
type rearmRun struct {
	in    *check.Instance
	res   sched.Result
	trace sched.Trace
}

// runRearmSequence drives runs of case c one after another, run i at
// population pops[i%len(pops)]. With rearm set each instance re-arms the
// last one's frames, whatever its population, and the engine is rewound
// through Reset while its lane count fits and rebuilt otherwise, as a
// campaign worker does; without it every run builds its frames and engine
// afresh.
func runRearmSequence(t *testing.T, c conformance.Case, pops []int, runs int, rearm bool) []rearmRun {
	t.Helper()
	out := make([]rearmRun, runs)
	var e *vexec.Exec
	var prev *check.Instance
	for i := range out {
		fam, err := adversary.ByName(rearmFamilies[i%len(rearmFamilies)])
		if err != nil {
			t.Fatal(err)
		}
		n := pops[i%len(pops)]
		seed := xrand.Mix(uint64(n), uint64(i)+1)
		in := check.NewInstance(c.New(n, seed), n, c.Origs(n, seed))
		if rearm && prev != nil {
			in.Reuse(prev)
		}
		prev = in
		if rearm && e != nil && e.N() == n {
			e.Reset(in.Origs, in.Frames())
		} else {
			e = vexec.New(n, in.Origs, in.Frames())
		}
		if !fam.Model.Atomic() {
			e.SetModel(fam.Model)
		}
		e.EnableTrace()
		res := e.Run(fam.NewPolicy(seed, n), fam.NewPlan(seed, n))
		in.Collect(e)
		out[i] = rearmRun{in: in, res: res, trace: e.Trace()}
	}
	return out
}

// TestRearmMatchesFresh runs a worker's sequence of runs for every
// conformance case at n = 3, at n = 16, and cycling n over 16, 3, 3 (frames
// re-armed at a smaller and at a larger population than they last ran),
// once on re-armed frames and once on fresh ones, and requires the same
// Result, trace and Got/Oks for every run, read after the whole sequence
// has run. The cycle's period is prime to the families', so each family
// meets each population.
func TestRearmMatchesFresh(t *testing.T) {
	runs := 24
	if testing.Short() {
		runs = 8
	}
	for _, c := range conformance.Cases() {
		for _, pops := range [][]int{{3}, {16}, {16, 3, 3}} {
			t.Run(fmt.Sprintf("%s-n%v", c.Name, pops), func(t *testing.T) {
				fresh := runRearmSequence(t, c, pops, runs, false)
				rearmed := runRearmSequence(t, c, pops, runs, true)
				crashes := 0
				for i := range fresh {
					f, r := fresh[i], rearmed[i]
					label := fmt.Sprintf("run %d (%s, n=%d)", i, rearmFamilies[i%len(rearmFamilies)], pops[i%len(pops)])
					if (f.res.Err == nil) != (r.res.Err == nil) {
						t.Fatalf("%s: err: fresh %v, re-armed %v", label, f.res.Err, r.res.Err)
					}
					compare(t, label,
						outcome{res: f.res, got: f.in.Got, oks: f.in.Oks, trace: f.trace},
						outcome{res: r.res, got: r.in.Got, oks: r.in.Oks, trace: r.trace})
					for _, c := range f.res.Crashed {
						if c {
							crashes++
						}
					}
				}
				if crashes == 0 {
					t.Fatal("no run crashed a process: the crash families abandoned no frame")
				}
			})
		}
	}
}

// TestRearmedFramesAllocateNothing pins the point of re-arming: once warm,
// an engine Reset with a re-armed Frames builder allocates nothing, at n = 3
// and 16 alike: the lane set's one builder travels with its roots, so
// Frames builds no closure per Reset either.
func TestRearmedFramesAllocateNothing(t *testing.T) {
	for _, c := range conformance.Cases() {
		for _, n := range []int{3, 16} {
			seed := uint64(n)
			in := check.NewInstance(c.New(n, seed), n, c.Origs(n, seed))
			e := vexec.New(n, in.Origs, in.Frames())
			e.Run(sched.NewRandom(seed), nil) // grow every frame's scratch
			next := check.NewInstance(c.New(n, seed+1), n, c.Origs(n, seed+1))
			next.Reuse(in)
			e.Reset(next.Origs, next.Frames())
			if a := testing.AllocsPerRun(20, func() { e.Reset(next.Origs, next.Frames()) }); a > 0 {
				t.Errorf("%s n=%d: a re-armed Reset allocates %v times, want 0", c.Name, n, a)
			}
		}
	}
}
