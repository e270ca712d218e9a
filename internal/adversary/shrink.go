package adversary

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/shmem"
)

// Reproducer is a minimal, fully deterministic recipe for re-triggering a
// violation: the algorithm label, adversary family, population size and run
// seed — plus, for fault-model families, the model the run executed under.
// Its String form is a one-line spec that Parse round-trips, so a failing
// exploration can be pasted straight into a regression test or replayed from
// a shell log.
type Reproducer struct {
	Label  string
	Family string
	N      int
	Seed   uint64
	// Model is the fault model the run executes under. The zero value (the
	// atomic default) is omitted from the line, so pre-fault-model lines
	// render and parse unchanged. A non-zero Model overrides the family's
	// own at replay — the line, not the library, is authoritative.
	Model shmem.Model
	// Restarts, when positive, pins the execution's total restart budget
	// (shmem.Model.MaxRestarts, which Model.String deliberately omits).
	// 0 means the model default: the population size, under recovery.
	Restarts int
	// Err is the violation the reproducer triggers (informational; not part
	// of the parsed form).
	Err error `json:"-"`
}

// String renders the one-line replayable spec, e.g.
//
//	adversary:algo=broken family=random n=2 seed=0x9e3779b97f4a7c15
//	adversary:algo=firstfit family=staleread n=3 seed=0x1 model=safe
//
// The model= and restarts= fields appear only when non-default, so lines
// from before the fault-model knob render byte-identically.
func (r Reproducer) String() string {
	s := fmt.Sprintf("adversary:algo=%s family=%s n=%d seed=%#x", r.Label, r.Family, r.N, r.Seed)
	if !r.Model.Atomic() {
		s += " model=" + r.Model.String()
	}
	if r.Restarts > 0 {
		s += fmt.Sprintf(" restarts=%d", r.Restarts)
	}
	return s
}

// Parse reads a one-line spec produced by String.
func Parse(line string) (Reproducer, error) {
	var rep Reproducer
	err := parseFields(line, "adversary", "spec", func(key, val string) (err error) {
		switch key {
		case "algo":
			rep.Label = val
		case "family":
			rep.Family = val
		case "n":
			rep.N, err = parseCount(val, 1)
		case "seed":
			rep.Seed, err = parseSeed(val)
		case "model":
			rep.Model, err = shmem.ParseModel(val)
		case "restarts":
			rep.Restarts, err = parseCount(val, 0)
		default:
			return errUnknownField
		}
		return err
	})
	if err == nil && (rep.Label == "" || rep.Family == "" || rep.N == 0) {
		err = fmt.Errorf("adversary: incomplete spec %q", strings.TrimSpace(line))
	}
	return rep, err
}

// errUnknownField is what a parseFields setter returns for a key its line
// format does not have.
var errUnknownField = errors.New("unknown field")

// parseFields reads a reproducer line: the "kind:" prefix, then
// space-separated key=value fields, each handed to set. what names the line
// format in errors. A field set rejects fails the parse, naming the key.
func parseFields(line, kind, what string, set func(key, val string) error) error {
	line = strings.TrimSpace(line)
	prefix := kind + ":"
	if !strings.HasPrefix(line, prefix) {
		return fmt.Errorf("adversary: %s line must start with %q: %q", what, prefix, line)
	}
	for _, field := range strings.Fields(line[len(prefix):]) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("adversary: malformed field %q in %s %q", field, what, line)
		}
		if err := set(key, val); errors.Is(err, errUnknownField) {
			return fmt.Errorf("adversary: unknown field %q in %s %q", key, what, line)
		} else if err != nil {
			return fmt.Errorf("adversary: bad %s in %s %q: %v", key, what, line, err)
		}
	}
	return nil
}

// parseSeed reads a hex seed, with or without its 0x prefix.
func parseSeed(val string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 64)
}

// parseCount reads a decimal count of at least least.
func parseCount(val string, least int) (int, error) {
	v, err := strconv.Atoi(val)
	if err == nil && v < least {
		err = fmt.Errorf("%d is below %d", v, least)
	}
	return v, err
}

// Replay re-executes a reproducer against the spec's algorithm and returns
// the violation it triggers, or nil if the run is clean (the bug no longer
// reproduces). The spec must build the algorithm the reproducer names — a
// label mismatch is an error, not a silent "does not reproduce" — and the
// family is resolved from the shipped library.
func Replay(spec *Spec, rep Reproducer) error {
	if rep.Label != spec.Label {
		return fmt.Errorf("adversary: reproducer is for algo %q but the spec builds %q", rep.Label, spec.Label)
	}
	sp := *spec // normalize a copy; the caller's spec stays untouched
	sp.normalize()
	fam, err := ByName(rep.Family)
	if err != nil {
		return err
	}
	// The line's own fault model wins over the family's: a reproducer must
	// replay the semantics it was found under even if the library's family
	// definition later changes.
	if !rep.Model.Atomic() {
		fam.Model = rep.Model
	}
	if rep.Restarts > 0 {
		fam.Model.Recovery = true
		fam.Model.MaxRestarts = rep.Restarts
	}
	_, verr := runOnce(&sp, fam, rep.N, rep.Seed)
	return verr
}

// shrinkSeedTries is how many derived seeds the shrinker probes per
// candidate configuration before concluding the violation does not
// reproduce there.
const shrinkSeedTries = 48

// Shrink minimizes a violation to the smallest reproducer it can find:
// first the simplest family (in All() order) that still triggers a
// violation at the original population, then the smallest population, then
// the first reproducing seed in a deterministic probe sequence. The result
// always reproduces (Replay returns non-nil); at worst it equals the
// original violation.
func Shrink(spec *Spec, v Violation) Reproducer {
	sp := *spec
	sp.normalize()
	best := Reproducer{Label: v.Label, Family: v.Family, N: v.N, Seed: v.Seed, Err: v.Err}

	// Prefer the bluntest family that still fails: a bug reproducible under
	// plain random scheduling is a stronger, more portable report than one
	// needing a surgical adversary.
	for _, fam := range sp.Families {
		if fam.Name == best.Family {
			break // everything before the original family failed to reproduce
		}
		if seed, err, ok := probeSeeds(&sp, fam, best.N, v.Seed); ok {
			best.Family, best.Seed, best.Err = fam.Name, seed, err
			break
		}
	}
	fam, ferr := ByName(best.Family)
	if ferr != nil {
		// A campaign-local family outside the shipped library: keep it.
		for _, f := range sp.Families {
			if f.Name == best.Family {
				fam = f
			}
		}
	}

	// Walk the population down greedily: repeatedly try every smaller n from
	// 1 upward and jump to the smallest that still reproduces.
	for n := 1; n < best.N; n++ {
		if seed, err, ok := probeSeeds(&sp, fam, n, best.Seed); ok {
			best.N, best.Seed, best.Err = n, seed, err
			break
		}
	}
	// Stamp the surviving family's fault model so the line replays the
	// semantics, not just the schedule (String omits the atomic default).
	best.Model = fam.Model
	return best
}

// probeSeeds re-runs a (family, n) configuration over a deterministic probe
// sequence derived from base (base itself first) and reports the first
// failing seed.
func probeSeeds(sp *Spec, fam Family, n int, base uint64) (uint64, error, bool) {
	seed := base
	for t := 0; t < shrinkSeedTries; t++ {
		if _, err := runOnce(sp, fam, n, seed); err != nil {
			return seed, err, true
		}
		seed = sp.runSeed(fam.Name, n, t)
	}
	return 0, nil, false
}
