package adversary

import (
	"fmt"
	"strings"

	"repro/internal/service"
)

// ChurnFamily is a named hostile workload shape for the long-lived renaming
// service: where the schedule families in family.go attack one one-shot
// execution's interleaving, a churn family attacks the service's lifecycle
// machinery — arrival bursts that slam whole generations open at once,
// synchronized departures that empty them at one instant, and crashes that
// abandon held names for the lease-reclaim path. A family is a pure function
// of (seed, sessions, lanes), so a churn reproducer line pins the entire run.
type ChurnFamily struct {
	Name string
	// Workload derives the deterministic streaming workload for one cell.
	Workload func(seed uint64, sessions int64, lanes int) service.Workload
}

// ChurnFamilies returns the shipped churn families. Order is stable (part of
// the reproducer contract):
//
//	steady         open arrivals, short uniform holds — the baseline
//	spike          arrivals gated into lane-wide bursts (generation slam)
//	syncdepart     releases aligned to a period — whole generations quiesce
//	               at one virtual instant, hammering the recycle path
//	crashnorelease a holder crashed every ~100 grants; its release write is
//	               never granted and the lease must be reclaimed
func ChurnFamilies() []ChurnFamily {
	return []ChurnFamily{
		{
			Name: "steady",
			Workload: func(seed uint64, sessions int64, lanes int) service.Workload {
				return service.Workload{Sessions: sessions, Lanes: lanes, Seed: seed, HoldMin: 0, HoldMax: 16}
			},
		},
		{
			Name: "spike",
			Workload: func(seed uint64, sessions int64, lanes int) service.Workload {
				return service.Workload{
					Sessions: sessions, Lanes: lanes, Seed: seed,
					HoldMin: 1, HoldMax: 32,
					SpikePeriod: 64, SpikeBurst: int64(lanes),
				}
			},
		},
		{
			Name: "syncdepart",
			Workload: func(seed uint64, sessions int64, lanes int) service.Workload {
				return service.Workload{
					Sessions: sessions, Lanes: lanes, Seed: seed,
					HoldMin: 1, HoldMax: 32, AlignRelease: 32,
				}
			},
		},
		{
			Name: "crashnorelease",
			Workload: func(seed uint64, sessions int64, lanes int) service.Workload {
				return service.Workload{
					Sessions: sessions, Lanes: lanes, Seed: seed,
					HoldMin: 2, HoldMax: 24, CrashEvery: 97,
				}
			},
		},
	}
}

// ChurnByName resolves a shipped churn family.
func ChurnByName(name string) (ChurnFamily, error) {
	for _, f := range ChurnFamilies() {
		if f.Name == name {
			return f, nil
		}
	}
	return ChurnFamily{}, fmt.Errorf("adversary: unknown churn family %q", name)
}

// ChurnReproducer is the one-line recipe for a streaming run: algorithm,
// churn family, scale and seed. Like the schedule Reproducer, its String
// form round-trips through ParseChurn so a failing run from a CI log replays
// verbatim.
type ChurnReproducer struct {
	Algo     string
	Family   string
	Sessions int64
	Lanes    int
	Cap      int
	Seed     uint64
}

// String renders the replayable line, e.g.
//
//	churn:algo=firstfit family=crashnorelease sessions=2000 lanes=8 cap=8 seed=0x2a
func (r ChurnReproducer) String() string {
	return fmt.Sprintf("churn:algo=%s family=%s sessions=%d lanes=%d cap=%d seed=%#x",
		r.Algo, r.Family, r.Sessions, r.Lanes, r.Cap, r.Seed)
}

// ParseChurn reads a line produced by ChurnReproducer.String.
func ParseChurn(line string) (ChurnReproducer, error) {
	var rep ChurnReproducer
	err := parseFields(line, "churn", "churn spec", func(key, val string) (err error) {
		switch key {
		case "algo":
			rep.Algo = val
		case "family":
			rep.Family = val
		case "sessions":
			var v int
			v, err = parseCount(val, 1)
			rep.Sessions = int64(v)
		case "lanes":
			rep.Lanes, err = parseCount(val, 1)
		case "cap":
			rep.Cap, err = parseCount(val, 1)
		case "seed":
			rep.Seed, err = parseSeed(val)
		default:
			return errUnknownField
		}
		return err
	})
	if err == nil && (rep.Algo == "" || rep.Family == "" || rep.Sessions == 0 || rep.Lanes == 0 || rep.Cap == 0) {
		err = fmt.Errorf("adversary: incomplete churn spec %q", strings.TrimSpace(line))
	}
	return rep, err
}

// ReplayChurn re-executes a churn reproducer with the full audit armed and
// returns the run's metrics plus the first invariant failure, or nil if the
// run is clean. The audit runs every event of the service's history through
// the long-lived verifier as it happens, so a run that finishes has passed
// it, and no second pass over the record is made. Audit panics (the online
// verifier fires inside the violating step) and driver watchdog panics are
// converted to errors so fuzz and regression harnesses report the
// reproducer line instead of dying.
func ReplayChurn(rep ChurnReproducer) (m service.Metrics, err error) {
	fam, ferr := ChurnByName(rep.Family)
	if ferr != nil {
		return m, ferr
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("adversary: churn replay panicked: %v (%s)", r, rep)
		}
	}()
	svc := service.New(service.Config{Cap: rep.Cap, Algo: rep.Algo, Seed: rep.Seed, Audit: true})
	w := fam.Workload(rep.Seed, rep.Sessions, rep.Lanes)
	// Watchdog: no session costs anywhere near 10k grants even under the
	// majority backend; a stuck workload should fail, not hang.
	w.MaxGrants = 10_000*rep.Sessions + 100_000
	m = service.NewVexecDriver(svc, w).Run()
	if m.Sessions != rep.Sessions {
		return m, fmt.Errorf("adversary: churn run processed %d of %d sessions (%s)", m.Sessions, rep.Sessions, rep)
	}
	st := m.Stats
	if st.Issued != st.Released+st.Reclaimed {
		return m, fmt.Errorf("adversary: name leak — issued %d != released %d + reclaimed %d (%s)",
			st.Issued, st.Released, st.Reclaimed, rep)
	}
	if n := svc.LiveNames(); n != 0 {
		return m, fmt.Errorf("adversary: %d names live after the run drained (%s)", n, rep)
	}
	return m, nil
}
