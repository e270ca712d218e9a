package adversary

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/sched"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// Spec describes a schedule-exploration campaign over one renaming
// algorithm: which instances to build, which invariants they must satisfy,
// and how much of the adversary's space to sweep.
type Spec struct {
	// Label names the algorithm in reports and reproducers.
	Label string
	// New builds a fresh instance for a run of n contenders. It must be safe
	// to call concurrently and every call must return an independent
	// instance (runs share nothing). The instance seed is derived from the
	// run seed, so a reproducer pins the graph as well as the schedule.
	New func(n int, seed uint64) check.Renamer
	// Origs supplies the original names for a run (nil: pids 1..n).
	Origs func(n int, seed uint64) []int64
	// Suite returns the invariants a run at population n must satisfy. The
	// family name is supplied so crash-sensitive liveness checkers can be
	// omitted under crash-injecting adversaries. nil defaults to
	// check.Basic() for every family.
	Suite func(n int, family string) check.Suite
	// Ns are the population sizes to explore (default {2, 3, 5, 8}).
	Ns []int
	// Families are the adversaries to run (default All()).
	Families []Family
	// Runs is the number of seeded runs per (family, n) cell (default 16).
	Runs int
	// Budget caps the total number of runs across all cells; 0 means no
	// cap. When the grid exceeds the budget, per-cell runs are scaled down
	// (never below one run per cell).
	Budget int
	// Seed derives every run seed; two campaigns with equal specs explore
	// identical schedules.
	Seed uint64
}

func (s *Spec) normalize() {
	if len(s.Ns) == 0 {
		s.Ns = []int{2, 3, 5, 8}
	}
	if len(s.Families) == 0 {
		s.Families = All()
	}
	if s.Runs <= 0 {
		s.Runs = 16
	}
	if cells := len(s.Ns) * len(s.Families); s.Budget > 0 && s.Runs*cells > s.Budget {
		s.Runs = s.Budget / cells
		if s.Runs < 1 {
			s.Runs = 1
		}
	}
}

func (s *Spec) suiteFor(n int, family string) check.Suite {
	if s.Suite == nil {
		return check.Basic()
	}
	return s.Suite(n, family)
}

// runSeed derives the seed of one run from the campaign seed and the cell
// coordinates, so every run is independently replayable.
func (s *Spec) runSeed(family string, n, run int) uint64 {
	h := xrand.Mix(s.Seed, uint64(n)<<32|uint64(run))
	for _, b := range []byte(family) {
		h = xrand.Mix(h, uint64(b))
	}
	return h
}

// instance builds one run's system from the spec: a fresh renamer and its
// original names, from the spec's sampler verbatim (the explore and replay
// paths must agree, down to panicking identically on a malformed length) or
// pids 1..n.
func (s *Spec) instance(n int, seed uint64) *check.Instance {
	r := s.New(n, seed)
	var origs []int64
	if s.Origs != nil {
		origs = s.Origs(n, seed)
	}
	return check.NewInstance(r, n, origs)
}

// Violation is one invariant failure found during exploration.
type Violation struct {
	Label  string
	Family string
	N      int
	Seed   uint64
	Err    error
	// Shrunk is the minimized reproducer (set by Explore; Shrink fills it).
	Shrunk *Reproducer
}

func (v Violation) String() string {
	return fmt.Sprintf("%s under %s n=%d seed=%#x: %v", v.Label, v.Family, v.N, v.Seed, v.Err)
}

// CellStats summarizes one (family, n) cell of the exploration grid.
type CellStats struct {
	Family    string
	N         int
	Runs      int   // executions
	Distinct  int   // distinct schedule fingerprints observed
	MaxSteps  int64 // worst per-process local-step count observed
	Crashes   int   // total crash injections across runs
	Violating int   // runs that violated the suite
	Explored  int   // scheduling decisions: grants, plus one per crash, plus two per restart
}

// Outcome is the result of one Explore campaign.
type Outcome struct {
	Label      string
	Runs       int   // total runs executed
	Distinct   int   // distinct schedule fingerprints across the campaign
	MaxSteps   int64 // worst per-process step count across the campaign
	Explored   int   // scheduling decisions executed across the campaign
	Pruned     int   // always 0; kept because perfbench reads it
	Deduped    int   // always 0; kept because perfbench reads it
	Cells      []CellStats
	Violations []Violation
}

// WorstCell returns the cell with the highest observed MaxSteps, the
// adversary family that extracted the most work per process.
func (o *Outcome) WorstCell() CellStats {
	var worst CellStats
	for _, c := range o.Cells {
		if c.MaxSteps >= worst.MaxSteps {
			worst = c
		}
	}
	return worst
}

// worker is what a campaign worker carries from run to run, across cells
// too: its vexec engine, rewound through Exec.Reset while its lane count
// still fits and rebuilt otherwise, and its last instance, whose lane frames
// the next instance re-arms (check.Instance.Reuse). The zero worker starts
// afresh.
type worker struct {
	e    *vexec.Exec
	last *check.Instance
}

// drive executes one seeded (family, n, seed) run of in on w and returns its
// result: on the vectorized engine when the renamer ships frame automata,
// and on a goroutine controller otherwise. Schedule fingerprints are
// bit-identical across the two engines (the vexec differential contract),
// so a seed means the same run on either.
func (w *worker) drive(in *check.Instance, fam Family, n int, seed uint64) sched.Result {
	policy, plan := fam.NewPolicy(seed, n), fam.NewPlan(seed, n)
	if w.last != nil {
		in.Reuse(w.last)
	}
	w.last = in
	root := in.Frames()
	if root == nil {
		return sched.RunModel(n, in.Origs, fam.Model, policy, plan, in.Body())
	}
	if w.e == nil || w.e.N() != n {
		w.e = vexec.New(n, in.Origs, root)
	} else {
		w.e.Reset(in.Origs, root)
	}
	if !fam.Model.Atomic() {
		w.e.SetModel(fam.Model)
	}
	return w.e.Run(policy, plan)
}

// runOnce executes a single (family, n, seed) run, on the engine a campaign
// would pick, and checks it against the spec's suite. It returns the run
// record and the first violation (nil if the run is clean).
func runOnce(spec *Spec, fam Family, n int, seed uint64) (*check.Run, error) {
	in := spec.instance(n, seed)
	res := new(worker).drive(in, fam, n, seed)
	run := &check.Run{}
	in.Record(run, res)
	return run, spec.suiteFor(n, fam.Name).Verdict(run)
}

// Explore sweeps the campaign grid: every (family, n) cell runs its seeded
// runs as independent executions fanned across the cores, each run on the
// vectorized engine when the algorithm compiles to frame automata and on a
// goroutine controller otherwise (drive). The outcome reports coverage
// (distinct schedule fingerprints), decisions executed, worst-case observed
// steps, and every invariant violation — the first of which is shrunk to a
// minimal reproducer.
func Explore(spec Spec) Outcome {
	spec.normalize()
	out := Outcome{Label: spec.Label}
	seen := make(map[uint64]struct{})
	workers := make([]worker, runtime.GOMAXPROCS(0))
	for _, fam := range spec.Families {
		for _, n := range spec.Ns {
			cell := exploreCell(&spec, fam, n, seen, workers)
			out.Cells = append(out.Cells, cell.stats)
			out.Runs += cell.stats.Runs
			out.Explored += cell.stats.Explored
			if cell.stats.MaxSteps > out.MaxSteps {
				out.MaxSteps = cell.stats.MaxSteps
			}
			out.Violations = append(out.Violations, cell.violations...)
		}
	}
	out.Distinct = len(seen)
	if len(out.Violations) > 0 {
		rep := Shrink(&spec, out.Violations[0])
		out.Violations[0].Shrunk = &rep
	}
	return out
}

type cellResult struct {
	stats      CellStats
	violations []Violation
}

// slot is one run of a cell: its seed, its instance and its result.
type slot struct {
	seed uint64
	in   *check.Instance
	res  sched.Result
}

// exploreCell runs one (family, n) cell. The runs are fanned across up to
// len(workers) workers; each builds every instance it drives, so
// construction stays parallel, and carries its engine and its last
// instance's frames from run to run (worker). Each slot keeps its own
// instance, whose Got and Oks the next run's re-armed frames no longer
// write. The results are then checked serially in run order into one reused
// record — checkers are cheap, runs are not.
func exploreCell(spec *Spec, fam Family, n int, seen map[uint64]struct{}, workers []worker) cellResult {
	slots := make([]slot, spec.Runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range workers[:min(len(workers), len(slots))] {
		w := &workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(slots) {
					return
				}
				s := &slots[i]
				s.seed = spec.runSeed(fam.Name, n, i)
				s.in = spec.instance(n, s.seed)
				s.res = w.drive(s.in, fam, n, s.seed)
			}
		}()
	}
	wg.Wait()

	cell := cellResult{stats: CellStats{Family: fam.Name, N: n, Runs: len(slots)}}
	suite := spec.suiteFor(n, fam.Name)
	cellSeen := make(map[uint64]struct{}, spec.Runs)
	var record check.Run
	for i := range slots {
		s := &slots[i]
		res := s.res
		seen[res.Fingerprint] = struct{}{}
		cellSeen[res.Fingerprint] = struct{}{}
		if ms := res.MaxSteps(); ms > cell.stats.MaxSteps {
			cell.stats.MaxSteps = ms
		}
		// Every grant is a decision, and so is each crash; a restart is one
		// decision plus the crash grant the final Crashed flags no longer show.
		cell.stats.Explored += int(res.TotalSteps())
		for _, crashed := range res.Crashed {
			if crashed {
				cell.stats.Explored++
			}
		}
		for _, r := range res.Restarts {
			cell.stats.Explored += 2 * r
		}
		s.in.Record(&record, res)
		cell.stats.Crashes += record.Crashes()
		if err := suite.Verdict(&record); err != nil {
			cell.stats.Violating++
			cell.violations = append(cell.violations, Violation{Label: spec.Label, Family: fam.Name, N: n, Seed: s.seed, Err: err})
		}
		*s = slot{} // checked: release the instance
	}
	cell.stats.Distinct = len(cellSeen)
	return cell
}

// Summary renders a short human-readable campaign report.
func (o *Outcome) Summary() string {
	s := fmt.Sprintf("%s: %d runs, %d distinct schedules, worst steps %d, %d violations",
		o.Label, o.Runs, o.Distinct, o.MaxSteps, len(o.Violations))
	if w := o.WorstCell(); w.Runs > 0 {
		s += fmt.Sprintf(" (worst cell: %s n=%d)", w.Family, w.N)
	}
	return s
}
