package adversary

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// brokenRenamer is the sacrificial fixture: a claim protocol with a planted
// exclusiveness bug. It scans the slot registers and takes the first one it
// reads as null — WITHOUT the confirming re-read the Figure 1 competition
// performs — so two processes whose null-reads interleave before either
// write both adopt the same slot. Safe solo; broken under contention.
type brokenRenamer struct {
	slots []shmem.Reg
}

func newBroken(n int) *brokenRenamer {
	return &brokenRenamer{slots: make([]shmem.Reg, n)}
}

func (b *brokenRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for i := range b.slots {
		if p.Read(&b.slots[i]) == shmem.Null {
			p.Write(&b.slots[i], orig)
			return int64(i + 1), true // bug: no confirmation that the claim held
		}
	}
	return 0, false
}

func (b *brokenRenamer) MaxName() int64 { return int64(len(b.slots)) }
func (b *brokenRenamer) Registers() int { return len(b.slots) }

// brokenFrame is brokenRenamer's frame twin: the same slot scan, access for
// access.
type brokenFrame struct {
	b     *brokenRenamer
	orig  int64
	i     int
	phase int // 0: post slot i's read; 1: perform it; 2: perform the claiming write
}

func (b *brokenRenamer) FrameRename(orig int64) vexec.Frame { return &brokenFrame{b: b, orig: orig} }

func (f *brokenFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.phase {
	case 1:
		if p.Read(&f.b.slots[f.i]) == shmem.Null {
			f.phase = 2
			return m.Intend(shmem.OpWrite, &f.b.slots[f.i])
		}
		f.i++
	case 2:
		p.Write(&f.b.slots[f.i], f.orig)
		return m.Return(int64(f.i+1), true)
	}
	if f.i == len(f.b.slots) {
		return m.Return(0, false)
	}
	f.phase = 1
	return m.Intend(shmem.OpRead, &f.b.slots[f.i])
}

// fairRenamer is a correct contrast fixture: slot i is owned by pid i, so
// exclusiveness holds under every schedule.
type fairRenamer struct {
	slots []shmem.Reg
}

func newFair(n int) *fairRenamer { return &fairRenamer{slots: make([]shmem.Reg, n)} }

func (f *fairRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	p.Write(&f.slots[p.ID()], orig)
	return int64(p.ID() + 1), true
}

func (f *fairRenamer) MaxName() int64 { return int64(len(f.slots)) }
func (f *fairRenamer) Registers() int { return len(f.slots) }

// fairFrame is fairRenamer's frame twin.
type fairFrame struct {
	f     *fairRenamer
	orig  int64
	armed bool
}

func (f *fairRenamer) FrameRename(orig int64) vexec.Frame { return &fairFrame{f: f, orig: orig} }

func (f *fairFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.armed {
		p.Write(&f.f.slots[p.ID()], f.orig)
		return m.Return(int64(p.ID()+1), true)
	}
	f.armed = true
	return m.Intend(shmem.OpWrite, &f.f.slots[p.ID()])
}

func brokenSpec() Spec {
	return Spec{
		Label: "broken",
		New:   func(n int, seed uint64) check.Renamer { return newBroken(n) },
		Ns:    []int{2, 3, 6},
		Runs:  12,
		Seed:  1,
	}
}

// TestExploreFindsAndShrinksPlantedBug is the PR's acceptance criterion: the
// explorer must find the planted exclusiveness violation, shrink it to a
// reproducer with n <= 4, and the reproducer must replay.
func TestExploreFindsAndShrinksPlantedBug(t *testing.T) {
	spec := brokenSpec()
	out := Explore(spec)
	if len(out.Violations) == 0 {
		t.Fatalf("explorer missed the planted bug (%d runs, %d distinct schedules)", out.Runs, out.Distinct)
	}
	v := out.Violations[0]
	if !strings.Contains(v.Err.Error(), "exclusive") {
		t.Fatalf("violation is not the planted exclusiveness bug: %v", v.Err)
	}
	if v.Shrunk == nil {
		t.Fatal("first violation was not shrunk")
	}
	rep := *v.Shrunk
	if rep.N > 4 {
		t.Fatalf("shrunk reproducer has n=%d, want <= 4 (%s)", rep.N, rep)
	}
	if rep.N < 2 {
		t.Fatalf("exclusiveness cannot break solo, yet shrunk to n=%d", rep.N)
	}
	// The rendered spec is one line and replays to the same class of failure.
	line := rep.String()
	if strings.Contains(line, "\n") {
		t.Fatalf("reproducer spec spans lines: %q", line)
	}
	parsed, err := Parse(line)
	if err != nil {
		t.Fatalf("reproducer line does not parse: %v", err)
	}
	verr := Replay(&spec, parsed)
	if verr == nil {
		t.Fatalf("reproducer %s does not replay", line)
	}
	if !strings.Contains(verr.Error(), "exclusive") {
		t.Fatalf("replayed failure is not the exclusiveness bug: %v", verr)
	}
}

// TestExploreCleanOnCorrectFixture: the same campaign against the correct
// fixture reports zero violations and meaningful coverage.
func TestExploreCleanOnCorrectFixture(t *testing.T) {
	out := Explore(Spec{
		Label: "fair",
		New:   func(n int, seed uint64) check.Renamer { return newFair(n) },
		Ns:    []int{2, 4},
		Runs:  8,
		Seed:  2,
	})
	if len(out.Violations) != 0 {
		t.Fatalf("clean fixture produced violations: %v", out.Violations[0])
	}
	if out.Runs != 8*2*len(All()) {
		t.Fatalf("ran %d runs, want %d", out.Runs, 8*2*len(All()))
	}
	if out.Distinct < 2 {
		t.Fatalf("coverage too low: %d distinct schedules over %d runs", out.Distinct, out.Runs)
	}
	if out.MaxSteps < 1 {
		t.Fatal("no steps observed")
	}
	if s := out.Summary(); !strings.Contains(s, "fair") || !strings.Contains(s, "0 violations") {
		t.Fatalf("summary malformed: %q", s)
	}
}

// TestExploreBudget: the budget cap scales per-cell runs down without
// dropping cells.
func TestExploreBudget(t *testing.T) {
	out := Explore(Spec{
		Label:  "fair",
		New:    func(n int, seed uint64) check.Renamer { return newFair(n) },
		Ns:     []int{2, 3},
		Runs:   100,
		Budget: 2 * len(All()) * 3, // 3 runs per cell
		Seed:   3,
	})
	wantCells := 2 * len(All())
	if len(out.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(out.Cells), wantCells)
	}
	if out.Runs != wantCells*3 {
		t.Fatalf("budget not applied: %d runs, want %d", out.Runs, wantCells*3)
	}
	// Budget smaller than the grid still runs every cell once.
	out = Explore(Spec{
		Label:  "fair",
		New:    func(n int, seed uint64) check.Renamer { return newFair(n) },
		Ns:     []int{2, 3},
		Runs:   100,
		Budget: 1,
		Seed:   3,
	})
	if out.Runs != wantCells {
		t.Fatalf("minimum one run per cell: got %d, want %d", out.Runs, wantCells)
	}
}

// TestShrinkPrefersBluntFamily: a violation first observed under a surgical
// family shrinks to the random family when the bug reproduces there too.
func TestShrinkPrefersBluntFamily(t *testing.T) {
	spec := brokenSpec()
	spec.normalize()
	// Manufacture a violation attributed to the last family in the library.
	last := spec.Families[len(spec.Families)-1]
	seed, verr, ok := probeSeeds(&spec, last, 6, spec.Seed)
	if !ok {
		t.Skipf("planted bug does not reproduce under %s at n=6", last.Name)
	}
	rep := Shrink(&spec, Violation{Label: "broken", Family: last.Name, N: 6, Seed: seed, Err: verr})
	if rep.Family != "random" {
		t.Fatalf("shrinker kept family %s; the bug reproduces under random", rep.Family)
	}
	if rep.N > 4 {
		t.Fatalf("shrunk n=%d, want <= 4", rep.N)
	}
	if err := Replay(&spec, rep); err == nil {
		t.Fatalf("shrunk reproducer %s does not replay", rep)
	}
}

// TestViolationString covers the diagnostic rendering.
func TestViolationString(t *testing.T) {
	v := Violation{Label: "x", Family: "random", N: 2, Seed: 7, Err: errFixture}
	s := v.String()
	for _, want := range []string{"x", "random", "n=2", "0x7", "fixture"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
}

var errFixture = &fixtureError{}

type fixtureError struct{}

func (*fixtureError) Error() string { return "fixture" }
