package adversary

import (
	"fmt"
	"sync"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/shmem"
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
	// Strategy builds each (family, n) cell's search strategy. nil defaults
	// to Seeded() — the pre-strategy fan-out of independent runs, one per
	// seed — so existing campaigns, tests, and shrunk reproducer lines are
	// untouched. DPOR, SleepSets and CoverageGuided plug in here.
	Strategy StrategyMaker
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

// origsFor supplies one run's original names: the spec's sampler verbatim
// (the explore and replay paths must agree, down to panicking identically on
// a malformed length), or pids 1..n.
func (s *Spec) origsFor(n int, seed uint64) []int64 {
	if s.Origs != nil {
		return s.Origs(n, seed)
	}
	names := make([]int64, n)
	for i := range names {
		names[i] = int64(i + 1)
	}
	return names
}

// Violation is one invariant failure found during exploration.
type Violation struct {
	Label  string
	Family string
	N      int
	Seed   uint64
	Err    error
	// Trace is the grant schedule of the violating execution when the
	// strategy drove it decision by decision (tree strategies); nil for
	// seeded runs, whose (family, seed) pair already replays the schedule.
	Trace sched.Trace
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
	Strategy  string // search strategy that drove the cell
	Runs      int    // complete executions
	Distinct  int    // distinct schedule fingerprints observed
	MaxSteps  int64  // worst per-process local-step count observed
	Crashes   int    // total crash injections across runs
	Violating int    // runs that violated the suite
	Explored  int    // distinct scheduling decisions executed by the search
	Replayed  int    // prefix grants re-executed for state reconstruction (stateless tree strategies)
	Restored  int    // checkpoint restores performed (stateful strategies; replaces Replayed)
	Pruned    int    // enabled choices skipped by partial-order reasoning
	Deduped   int    // always 0: no strategy cuts a state by hash; kept because perfbench reads it
	Complete  bool   // the strategy exhausted its search space for this cell
}

// Outcome is the result of one Explore campaign.
type Outcome struct {
	Label      string
	Runs       int   // total runs executed
	Distinct   int   // distinct schedule fingerprints across the campaign
	MaxSteps   int64 // worst per-process step count across the campaign
	Explored   int   // distinct scheduling decisions executed across the campaign
	Replayed   int   // reconstruction grants re-executed by stateless tree strategies
	Restored   int   // checkpoint restores performed by stateful strategies
	Pruned     int   // choices skipped by partial-order reasoning
	Deduped    int   // always 0: no strategy cuts a state by hash; kept because perfbench reads it
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

// runOnce executes a single (family, n, seed) run and checks it against the
// spec's suite. It returns the run record and the first violation (nil if
// the run is clean).
func runOnce(spec *Spec, fam Family, n int, seed uint64) (*check.Run, error) {
	r := spec.New(n, seed)
	run := check.DriveModel(r, n, spec.origsFor(n, seed), fam.Model, fam.NewPolicy(seed, n), fam.NewPlan(seed, n))
	if run.Res.Err != nil {
		return run, fmt.Errorf("process panic: %w", run.Res.Err)
	}
	return run, spec.suiteFor(n, fam.Name).Check(run)
}

// Explore sweeps the campaign grid as a thin driver over the strategy
// layer: each (family, n) cell instantiates the spec's StrategyMaker
// (Seeded by default, which fans the cell's independent runs across workers
// via sched.ParallelRuns exactly as before) and hands it to explore.Drive.
// The outcome reports coverage (distinct schedule fingerprints), search
// effort (decisions explored, choices pruned), worst-case observed steps,
// and every invariant violation — the first of which is shrunk to a minimal
// reproducer.
func Explore(spec Spec) Outcome {
	spec.normalize()
	out := Outcome{Label: spec.Label}
	seen := make(map[uint64]struct{})
	for _, fam := range spec.Families {
		for _, n := range spec.Ns {
			cell := exploreCell(&spec, fam, n, seen)
			out.Cells = append(out.Cells, cell.stats)
			out.Runs += cell.stats.Runs
			out.Explored += cell.stats.Explored
			out.Replayed += cell.stats.Replayed
			out.Restored += cell.stats.Restored
			out.Pruned += cell.stats.Pruned
			if cell.stats.MaxSteps > out.MaxSteps {
				out.MaxSteps = cell.stats.MaxSteps
			}
			out.Violations = append(out.Violations, cell.violations...)
		}
	}
	out.Distinct = len(seen)
	if len(out.Violations) > 0 {
		v := out.Violations[0]
		rep := Shrink(&spec, v)
		// Tree-strategy violations (non-nil Trace) are attributed to the cell
		// label and pinned seed, which did not drive the schedule, so Shrink
		// may come back with a line that does not replay. Attach only a
		// verified reproducer; otherwise the Trace is the recipe.
		if v.Trace == nil || Replay(&spec, rep) != nil {
			out.Violations[0].Shrunk = &rep
		}
	}
	return out
}

type cellResult struct {
	stats      CellStats
	violations []Violation
}

// capture is the per-execution record one cell run writes into: the fresh
// instance, the names it was started with, the Rename return values, and
// the (family, seed) pair a violation should be reported under.
type capture struct {
	r      check.Renamer
	family string
	seed   uint64
	origs  []int64
	got    []int64
	oks    []bool
}

// genomer is implemented by strategies (CoverageGuided) whose executions are
// still seeded family runs, just chosen adaptively: the genome names the
// family and seed actually driving the next run, which is what a violation
// must be attributed to for the reproducer line to replay.
type genomer interface {
	Genome() (string, uint64)
}

// exploreCell runs one (family, n) cell through its strategy. Instances and
// outcome arrays are captured per execution (concurrently, when the
// strategy's runs are independent and fanned out) and checked serially —
// checkers are cheap; runs are not.
func exploreCell(spec *Spec, fam Family, n int, seen map[uint64]struct{}) cellResult {
	seeds := make([]uint64, spec.Runs)
	for run := range seeds {
		seeds[run] = spec.runSeed(fam.Name, n, run)
	}
	maker := spec.Strategy
	if maker == nil {
		maker = Seeded()
	}
	strat := maker(fam, n, seeds)
	seeder, _ := strat.(explore.Seeder)
	seedOf := func(run int) uint64 {
		if seeder != nil {
			return seeder.RunSeed(run)
		}
		if run < len(seeds) {
			return seeds[run]
		}
		return spec.runSeed(fam.Name, n, run)
	}

	// Captures are created on first touch of a run index. Only slice access
	// is locked: the first touch of any given run is single-threaded (one
	// ParallelRuns worker builds one run's spec; sequential strategies are
	// one goroutine), so instance construction itself stays parallel on the
	// seeded fast path. Stateful strategies (source DPOR) search one
	// persistent system through checkpoint/restore: every run maps to the
	// run-0 capture, which lives for the whole cell and is reset — not
	// rebuilt — between executions.
	_, fanned := strat.(explore.Independent)
	_, stateful := strat.(explore.Stateful)
	var mu sync.Mutex
	caps := make([]*capture, 0, spec.Runs)
	capOf := func(run int) *capture {
		if stateful {
			run = 0
		}
		mu.Lock()
		for len(caps) <= run {
			caps = append(caps, nil)
		}
		c := caps[run]
		mu.Unlock()
		if c != nil {
			return c
		}
		family, seed := fam.Name, seedOf(run)
		if g, ok := strat.(genomer); ok {
			family, seed = g.Genome()
		}
		c = &capture{
			r:      spec.New(n, seed),
			family: family,
			seed:   seed,
			origs:  spec.origsFor(n, seed),
			got:    make([]int64, n),
			oks:    make([]bool, n),
		}
		mu.Lock()
		caps[run] = c
		if !fanned && run > 0 {
			// Sequential strategies advance one run at a time, and the
			// previous run is fully processed (or abandoned — those skip
			// OnResult) by the time the next capture is built: release it so
			// long searches do not retain every instance ever built.
			caps[run-1] = nil
		}
		mu.Unlock()
		return c
	}

	cell := cellResult{stats: CellStats{Family: fam.Name, N: n, Strategy: strat.Name()}}
	suite := spec.suiteFor(n, fam.Name)
	cellSeen := make(map[uint64]struct{}, spec.Runs)

	// Algorithms that compile to frame automata run on the vectorized engine:
	// independent (Seeded) cells fan across vexec.RunBatch, sequential
	// strategies (coverage-guided) recycle one vexec engine per run, and
	// stateful cells (source DPOR) checkpoint/restore on it — explore picks
	// vexec whenever the Frame factory is present, and a stateful strategy
	// requires it. Run 0's
	// instance is sniffed for the interface and then runs as usual (a
	// genome-driven strategy has picked run 0's genome at construction).
	// Fingerprints are bit-identical across engines (the vexec differential
	// contract), so violation seeds, committed reproducer lines, and the
	// goroutine-based Replay/Shrink paths keep working unchanged against
	// vexec-discovered schedules.
	probe := capOf(0).r
	var frame func(run int) func(p *shmem.Proc) vexec.Frame
	if _, ok := probe.(vexec.FrameRenamer); ok {
		frame = func(run int) func(p *shmem.Proc) vexec.Frame {
			c := capOf(run)
			fr := c.r.(vexec.FrameRenamer)
			return func(p *shmem.Proc) vexec.Frame {
				return vexec.Capture(fr.FrameRename(p.Name()), &c.got[p.ID()], &c.oks[p.ID()])
			}
		}
	}
	stats := explore.Drive(strat, explore.Config{
		N:     n,
		Model: fam.Model,
		Names: func(run int) []int64 { return capOf(run).origs },
		Frame: frame,
		Body: func(run int) sched.Body {
			c := capOf(run)
			return func(p *shmem.Proc) {
				c.got[p.ID()], c.oks[p.ID()] = c.r.Rename(p, p.Name())
			}
		},
		Reset: func(pid int) {
			c := capOf(0)
			c.got[pid], c.oks[pid] = 0, false
		},
		OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
			c := capOf(run)
			seen[res.Fingerprint] = struct{}{}
			cellSeen[res.Fingerprint] = struct{}{}
			if ms := res.MaxSteps(); ms > cell.stats.MaxSteps {
				cell.stats.MaxSteps = ms
			}
			record := check.NewRun(c.origs, c.got, c.oks, res, c.r.MaxName())
			cell.stats.Crashes += record.Crashes()
			// A process panic preempts the suite verdict, mirroring runOnce:
			// the report and the shrunk reproducer must agree on the failure
			// class.
			var err error
			if res.Err != nil {
				err = fmt.Errorf("process panic: %w", res.Err)
			} else {
				err = suite.Check(record)
			}
			if err != nil {
				cell.stats.Violating++
				cell.violations = append(cell.violations, Violation{
					Label:  spec.Label,
					Family: c.family,
					N:      n,
					Seed:   c.seed,
					Err:    err,
					// tr aliases the drive's reused trace buffer; the
					// violation outlives this callback, so copy.
					Trace: append(sched.Trace(nil), tr...),
				})
			}
			// The run is checked; release its instance so long sequential
			// campaigns do not hold every renamer ever built. (Stateful cells
			// keep theirs: it IS the search state.)
			if !stateful {
				mu.Lock()
				caps[run] = nil
				mu.Unlock()
			}
			return true
		},
	})
	cell.stats.Runs = stats.Executions
	cell.stats.Explored = stats.Explored
	cell.stats.Replayed = stats.Replayed
	cell.stats.Restored = stats.Restored
	cell.stats.Pruned = stats.Pruned
	cell.stats.Complete = stats.Complete
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
