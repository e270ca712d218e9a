package adversary

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// contendedRenamer is correct (slot i is owned by pid i) but funnels every
// process through rounds of write/read on one shared register first, so
// schedules genuinely differ: the fixture for comparing search strategies on
// a space with many inequivalent interleavings.
type contendedRenamer struct {
	shared shmem.Reg
	slots  []shmem.Reg
	rounds int
}

func newContended(n, rounds int) *contendedRenamer {
	return &contendedRenamer{slots: make([]shmem.Reg, n), rounds: rounds}
}

func (c *contendedRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for r := 0; r < c.rounds; r++ {
		p.Write(&c.shared, orig)
		p.Read(&c.shared)
	}
	p.Write(&c.slots[p.ID()], orig)
	return int64(p.ID() + 1), true
}

func (c *contendedRenamer) MaxName() int64 { return int64(len(c.slots)) }
func (c *contendedRenamer) Registers() int { return len(c.slots) + 1 }

// contendedFrame is contendedRenamer's frame twin.
type contendedFrame struct {
	c     *contendedRenamer
	orig  int64
	round int
	phase int // the access the next Run performs: 0 none yet, 1 the shared write, 2 the shared read, 3 the slot write
}

func (c *contendedRenamer) FrameRename(orig int64) vexec.Frame {
	return &contendedFrame{c: c, orig: orig}
}

func (f *contendedFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.phase {
	case 1:
		p.Write(&f.c.shared, f.orig)
		f.phase = 2
		return m.Intend(shmem.OpRead, &f.c.shared)
	case 2:
		p.Read(&f.c.shared)
		f.round++
	case 3:
		p.Write(&f.c.slots[p.ID()], f.orig)
		return m.Return(int64(p.ID()+1), true)
	}
	if f.round < f.c.rounds {
		f.phase = 1
		return m.Intend(shmem.OpWrite, &f.c.shared)
	}
	f.phase = 3
	return m.Intend(shmem.OpWrite, &f.c.slots[p.ID()])
}

// strategySpec is the planted-bug campaign pinned to one cell so tree
// strategies search a single deterministic system.
func strategySpec(maker StrategyMaker, runs int) Spec {
	return Spec{
		Label:    "broken",
		New:      func(n int, seed uint64) check.Renamer { return newBroken(n) },
		Ns:       []int{2},
		Families: []Family{mustFamily("random")},
		Runs:     runs,
		Seed:     1,
		Strategy: maker,
	}
}

func mustFamily(name string) Family {
	f, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// TestSleepSetStrategyProvesFairCell: on the correct fixture the exhaustive
// strategy completes its cell — Explore reports the cell Complete, turning a
// sampled sweep into a per-cell proof.
func TestSleepSetStrategyProvesFairCell(t *testing.T) {
	out := Explore(Spec{
		Label:    "fair",
		New:      func(n int, seed uint64) check.Renamer { return newFair(n) },
		Ns:       []int{3},
		Families: []Family{mustFamily("random")},
		Runs:     64,
		Seed:     2,
		Strategy: SleepSets(0, 0),
	})
	if len(out.Violations) != 0 {
		t.Fatalf("clean fixture produced violations: %v", out.Violations[0])
	}
	cell := out.Cells[0]
	if !cell.Complete {
		t.Fatalf("fair n=3 cell not exhausted within %d runs: %+v", 64, cell)
	}
	if cell.Pruned == 0 {
		t.Fatal("no pruning recorded on a mostly commuting fixture")
	}
}

// TestSourceDPORPrunesAgainstSeededBaseline is the acceptance comparison: on
// the same contended cell, source-DPOR matches the seeded fingerprint
// coverage with strictly fewer explored decisions. The comparison is
// coverage-matched: every source-DPOR execution lands a fresh Mazurkiewicz
// trace (hence a fresh fingerprint), so a budget equal to the seeded sweep's
// distinct count reaches equal coverage, and partial-order reduction plus
// restoring shared prefixes make it pay fewer decisions for it.
func TestSourceDPORPrunesAgainstSeededBaseline(t *testing.T) {
	const runs = 16
	mk := func(maker StrategyMaker) Outcome {
		return Explore(Spec{
			Label:    "contended",
			New:      func(n int, seed uint64) check.Renamer { return newContended(n, 3) },
			Ns:       []int{2},
			Families: []Family{mustFamily("random")},
			Runs:     runs,
			Seed:     7,
			Strategy: maker,
		})
	}
	seeded := mk(nil)
	src := mk(SourceDPOR(seeded.Distinct, 0))
	if len(seeded.Violations)+len(src.Violations) != 0 {
		t.Fatalf("contended fixture is correct, yet violations: %v %v", seeded.Violations, src.Violations)
	}
	if src.Distinct < seeded.Distinct {
		t.Fatalf("source-DPOR coverage %d below seeded %d", src.Distinct, seeded.Distinct)
	}
	if src.Explored >= seeded.Explored {
		t.Fatalf("source-DPOR explored %d decisions for coverage %d, seeded %d for %d — no pruning",
			src.Explored, src.Distinct, seeded.Explored, seeded.Distinct)
	}
	// Every source-DPOR execution is a distinct Mazurkiewicz trace, so none
	// repeat.
	if src.Distinct != src.Runs {
		t.Fatalf("source-DPOR produced %d distinct schedules over %d runs; tree executions must not repeat", src.Distinct, src.Runs)
	}
}

// TestCoverageGuidedStrategyExplores: the mutation strategy drives full
// campaigns through Explore, respects the run budget, and reports genome
// seeds in violations that the shrinker can then minimize.
func TestCoverageGuidedStrategyExplores(t *testing.T) {
	out := Explore(strategySpec(CoverageGuided(48), 48))
	if out.Runs != 48 {
		t.Fatalf("coverage-guided ran %d executions, want the 48 budget", out.Runs)
	}
	if out.Cells[0].Strategy != "covguided" {
		t.Fatalf("cell strategy %q, want covguided", out.Cells[0].Strategy)
	}
	if len(out.Violations) == 0 {
		t.Fatal("coverage-guided search missed the planted bug over 48 contended runs")
	}
	if out.Violations[0].Shrunk == nil {
		t.Fatal("first violation was not shrunk")
	}
	// The shrunk reproducer goes through the seeded replay machinery
	// regardless of which strategy found the bug.
	if err := Replay(&Spec{Label: "broken", New: func(n int, seed uint64) check.Renamer { return newBroken(n) }}, *out.Violations[0].Shrunk); err == nil {
		t.Fatalf("shrunk reproducer %s does not replay", *out.Violations[0].Shrunk)
	}
}

// TestSeededStrategyMatchesDefault: passing Seeded() explicitly is
// indistinguishable from the nil default — same runs, same coverage, same
// fingerprints feeding the campaign total.
func TestSeededStrategyMatchesDefault(t *testing.T) {
	spec := func(maker StrategyMaker) Spec {
		return Spec{
			Label:    "fair",
			New:      func(n int, seed uint64) check.Renamer { return newFair(n) },
			Ns:       []int{2, 4},
			Runs:     8,
			Seed:     3,
			Strategy: maker,
		}
	}
	def := Explore(spec(nil))
	exp := Explore(spec(Seeded()))
	if def.Runs != exp.Runs || def.Distinct != exp.Distinct || def.MaxSteps != exp.MaxSteps {
		t.Fatalf("explicit Seeded() diverges from default: %+v vs %+v", def, exp)
	}
	for i := range def.Cells {
		d, e := def.Cells[i], exp.Cells[i]
		if d.Distinct != e.Distinct || d.Runs != e.Runs || d.Crashes != e.Crashes {
			t.Fatalf("cell %d diverges: %+v vs %+v", i, d, e)
		}
	}
}

// TestSourceDPORStrategyFindsPlantedBug: the stateful engine plugs into
// Explore like any other maker, walks into the planted violation
// systematically, and reconstructs state by restore — never by replay.
func TestSourceDPORStrategyFindsPlantedBug(t *testing.T) {
	out := Explore(strategySpec(SourceDPOR(256, 0), 8))
	if len(out.Violations) == 0 {
		t.Fatalf("source-DPOR missed the planted bug: %d runs, %d distinct, %d explored", out.Runs, out.Distinct, out.Explored)
	}
	v := out.Violations[0]
	if !strings.Contains(v.Err.Error(), "exclusive") {
		t.Fatalf("violation is not the planted exclusiveness bug: %v", v.Err)
	}
	if len(v.Trace) == 0 {
		t.Fatal("stateful-strategy violation carries no schedule trace")
	}
	if out.Cells[0].Strategy != "sourcedpor" {
		t.Fatalf("cell strategy %q, want sourcedpor", out.Cells[0].Strategy)
	}
	if out.Replayed != 0 {
		t.Fatalf("stateful cell replayed %d grants; checkpoint/restore must replace replay", out.Replayed)
	}
}

// TestSourceDPORProvesCellCheaperThanSleepSet: on the contended fixture both
// tree engines exhaust the cell, but source sets + restore pay fewer
// explored decisions and zero replays for the same complete coverage.
func TestSourceDPORProvesCellCheaperThanSleepSet(t *testing.T) {
	mk := func(maker StrategyMaker) Outcome {
		return Explore(Spec{
			Label: "contended",
			// One contention round at n=3: small enough for the stateless
			// engine to exhaust, contended enough to leave room for pruning.
			New:      func(n int, seed uint64) check.Renamer { return newContended(n, 1) },
			Ns:       []int{3},
			Families: []Family{mustFamily("random")},
			Runs:     1 << 20,
			Seed:     7,
			Strategy: maker,
		})
	}
	sleep := mk(SleepSets(0, 0))
	src := mk(SourceDPOR(0, 0))
	if len(sleep.Violations)+len(src.Violations) != 0 {
		t.Fatalf("contended fixture is correct, yet violations: %v %v", sleep.Violations, src.Violations)
	}
	if !sleep.Cells[0].Complete || !src.Cells[0].Complete {
		t.Fatalf("cells not exhausted: sleepset %+v, sourcedpor %+v", sleep.Cells[0], src.Cells[0])
	}
	if src.Explored > sleep.Explored {
		t.Fatalf("source-DPOR explored %d decisions, sleep-set %d — the reduced walk must not be larger", src.Explored, sleep.Explored)
	}
	if src.Replayed != 0 || sleep.Replayed == 0 {
		t.Fatalf("replay accounting inverted: sourcedpor %d, sleepset %d", src.Replayed, sleep.Replayed)
	}
	if src.Cells[0].Restored == 0 {
		t.Fatal("no restores recorded for the stateful cell")
	}
}
