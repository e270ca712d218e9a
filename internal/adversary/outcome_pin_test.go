package adversary

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
)

// outcomePin is one seeded campaign cell — (case, family, n), 16 runs at
// campaign seed 1 — and its outcome: total runs, decisions (Explored:
// grants, plus one per crash, plus two per restart), distinct schedule
// fingerprints, worst per-process steps, crash injections, and the seeds of
// the violating runs in run order.
type outcomePin struct {
	c, fam               string
	n                    int
	runs, explored, dist int
	maxSteps             int64
	crashes              int
	violations           []uint64
}

// outcomePins were recorded when Explore still drove its cells through a
// pluggable strategy's seeded fan-out. crashwrite and crashhalf pin the
// crash term of the decision count, crashrestart (crash recovery) the
// restart term, and the planted-bug fixture the violation seeds.
var outcomePins = []outcomePin{
	{"basic", "random", 5, 16, 400, 16, 5, 0, nil},
	{"majority", "crashwrite", 8, 16, 528, 16, 5, 52, nil},
	{"efficient", "crashhalf", 5, 16, 7500, 16, 251, 32, nil},
	{"polylog", "lockstep", 6, 16, 960, 16, 10, 0, nil},
	{"almostadaptive", "writeblock", 4, 16, 642, 16, 11, 0, nil},
	{"adaptive", "starve", 3, 16, 1262, 16, 66, 0, nil},
	{"firstfit", "crashrestart", 3, 16, 401, 16, 13, 4, nil},
	{"firstfit", "staleread", 3, 16, 393, 16, 13, 0, nil},
	{"firstfit", "opdelay", 4, 16, 536, 16, 16, 0, nil},
	{"broken", "random", 3, 16, 118, 15, 4, 0, []uint64{0xdb1dc7b93aae8278, 0xe0f9945e606a3d0, 0x4b34c53512137529, 0x8f4e57186362f480, 0x19fb0684e3cdf654, 0xaed8f294bcd56dce, 0x8982867066cba1fc, 0xf98d3a6ca6e4f09, 0x3f3acb0fa430a307, 0xb177701b61f188a5, 0x76e99c48e632770d}},
	{"broken", "crashwrite", 4, 16, 159, 16, 4, 18, []uint64{0x38858c0e3b818f93, 0xa9d3119ca8a0d962, 0x882758c155246d12, 0x2774cf818bdacb8c, 0xf360eb059ff14f62, 0x9e8dedf844b110c5, 0x12aa58e55029b984, 0xd03462b1bcbd505, 0x3ed6fd3d67285f14, 0x61ba9dc6f1c40620, 0xf24614b053e256fa, 0x5453239fc000dcab}},
	{"broken", "crashrestart", 3, 16, 141, 16, 7, 3, []uint64{0xbb1529ee257594f9, 0x25cf40f2a9290f18, 0x47de15a06a7c846f, 0x2e751bacc21c2286, 0xaec0bfa8c5ca3188, 0xfd955a31c29f6b78, 0x4f9755907e0e5fb8, 0xa47998cae7c200af, 0x6666f7eca01fb191, 0xdc2264c2a4d51d7a, 0xe41f4a687c7fcc09}},
}

// TestExploreOutcomePinned pins what a seeded campaign reports, on the
// vectorized engine and, with FrameRename hidden behind a wrapper struct, on
// the goroutine engine: both must give the recorded outcome.
func TestExploreOutcomePinned(t *testing.T) {
	byName := make(map[string]conformance.Case)
	for _, c := range conformance.Cases() {
		byName[c.Name] = c
	}
	// The planted-bug fixture (explore_test.go) makes the violation seeds
	// non-empty; nil Origs and Suite take the campaign defaults.
	byName["broken"] = conformance.Case{Name: "broken", New: func(n int, _ uint64) check.Renamer { return newBroken(n) }}
	for _, pin := range outcomePins {
		c := byName[pin.c]
		fam, err := ByName(pin.fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, hidden := range []bool{false, true} {
			newR := c.New
			if hidden {
				newR = func(n int, seed uint64) check.Renamer { return struct{ check.Renamer }{c.New(n, seed)} }
			}
			out := Explore(Spec{
				Label:    c.Name,
				New:      newR,
				Origs:    c.Origs,
				Suite:    c.Suite,
				Ns:       []int{pin.n},
				Families: []Family{fam},
				Runs:     16,
				Seed:     1,
			})
			got := outcomePin{c: pin.c, fam: pin.fam, n: pin.n, runs: out.Runs, explored: out.Explored,
				dist: out.Distinct, maxSteps: out.MaxSteps}
			for _, cell := range out.Cells {
				got.crashes += cell.Crashes
			}
			for _, v := range out.Violations {
				got.violations = append(got.violations, v.Seed)
			}
			if fmt.Sprint(got) != fmt.Sprint(pin) {
				t.Errorf("hidden=%v:\n got %s\nwant %s", hidden, pinString(got), pinString(pin))
			}
		}
	}
}

func pinString(p outcomePin) string {
	return fmt.Sprintf("{%q, %q, %d, %d, %d, %d, %d, %d, %#v}",
		p.c, p.fam, p.n, p.runs, p.explored, p.dist, p.maxSteps, p.crashes, p.violations)
}
