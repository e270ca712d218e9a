package adversary

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// pinCases are the algorithms the pinned runs drive: the two expander-stage
// algorithms, the snapshot-based one (long, contended schedules) and the
// first-fit fixture (maximal register contention). All compile to frames.
var pinCases = []string{"basic", "polylog", "efficient", "firstfit"}

// driveFamily runs one (family, case, n, seed) execution on vexec and
// returns its schedule fingerprint.
func driveFamily(t *testing.T, fam Family, c conformance.Case, n int, seed uint64) uint64 {
	t.Helper()
	fr, ok := c.New(n, seed).(vexec.FrameRenamer)
	if !ok {
		t.Fatalf("%s does not compile to frames", c.Name)
	}
	got, oks := make([]int64, n), make([]bool, n)
	e := vexec.New(n, c.Origs(n, seed), func(p *shmem.Proc) vexec.Frame {
		return vexec.Capture(fr.FrameRename(p.Name(), nil), &got[p.ID()], &oks[p.ID()], nil)
	})
	e.SetModel(fam.Model)
	res := e.Run(fam.NewPolicy(seed, n), fam.NewPlan(seed, n))
	if res.Err != nil {
		t.Fatalf("%s/%s n=%d seed=%#x: %v", c.Name, fam.Name, n, seed, res.Err)
	}
	return res.Fingerprint
}

// familyDigests pins every shipped family's schedules: per family, the
// fingerprints of a fixed grid of (case, n, seed) executions, folded in
// order. The values were recorded with the slice-scanning policies that
// preceded the bitmap-native ones, so a change to any policy's decisions or
// rng draws — which would silently re-map every committed reproducer line
// and campaign seed — fails here.
var familyDigests = map[string]uint64{
	"random":       0x9db1891e3a63ea35,
	"roundrobin":   0xe06efd79eee1d3dd,
	"starve":       0xa5987f80530d4a33,
	"writeblock":   0xaa494a07feb06504,
	"collapse":     0xa77ba172a16db237,
	"lockstep":     0x471473623b9c3027,
	"crashwrite":   0x283a9d3cee5b9c5d,
	"crashhalf":    0x5d93b9868a825175,
	"staleread":    0x82e43f811e083308,
	"crashrestart": 0xc60a2ecfd9d839fb,
	"opdelay":      0x255010ac475b58b1,
}

func TestFamilySchedulesPinned(t *testing.T) {
	byName := make(map[string]conformance.Case)
	for _, c := range conformance.Cases() {
		byName[c.Name] = c
	}
	for _, fam := range append(All(), FaultFamilies()...) {
		var h uint64
		for _, name := range pinCases {
			for _, n := range []int{2, 5, 16} {
				for s := uint64(0); s < 8; s++ {
					h = xrand.Mix(h, driveFamily(t, fam, byName[name], n, xrand.Mix(s, uint64(n))))
				}
			}
		}
		if want := familyDigests[fam.Name]; h != want {
			t.Errorf("%s: schedule digest %#x, want %#x", fam.Name, h, want)
		}
	}
}
