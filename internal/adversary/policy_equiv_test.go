package adversary

import (
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// viaNext drives a policy through Policy.Next only, hiding any IterPolicy,
// and records the pids it picks. PickStale is forwarded so that weak-register
// families keep their stale choices; for a policy without one it reads
// fresh, which is what the drivers do for such a policy.
type viaNext struct {
	p    sched.Policy
	pids []int
}

func (v *viaNext) Next(e sched.Engine, pending []int) int {
	pid := v.p.Next(e, pending)
	v.pids = append(v.pids, pid)
	return pid
}

func (v *viaNext) PickStale(e sched.Engine, pid, count int) int { return pickStale(v.p, e, pid, count) }

// viaIter drives a policy through IterPolicy.NextIter only.
type viaIter struct {
	p    sched.IterPolicy
	pids []int
}

func (v *viaIter) Next(sched.Engine, []int) int {
	panic("adversary: viaIter must be driven through NextIter")
}

func (v *viaIter) NextIter(e sched.Engine) int {
	pid := v.p.NextIter(e)
	v.pids = append(v.pids, pid)
	return pid
}

func (v *viaIter) PickStale(e sched.Engine, pid, count int) int {
	return pickStale(v.p.(sched.Policy), e, pid, count)
}

func pickStale(p sched.Policy, e sched.Engine, pid, count int) int {
	if sp, ok := p.(sched.StalePolicy); ok {
		return sp.PickStale(e, pid, count)
	}
	return 0
}

// equivCases are the algorithms the equivalence runs drive: the two
// expander-stage algorithms, the snapshot-based one (long, contended
// schedules) and the first-fit fixture (maximal register contention). All
// compile to frames, so both engines run them.
var equivCases = []string{"basic", "polylog", "efficient", "firstfit"}

// driveFamily runs one (family, case, n, seed) execution with the policy
// wrapped by wrap, on the goroutine engine or on vexec, and returns the
// picked pids and the schedule fingerprint.
func driveFamily(t *testing.T, fam Family, c conformance.Case, n int, seed uint64, onVexec bool, wrap func(sched.Policy) (sched.Policy, *[]int)) ([]int, uint64) {
	t.Helper()
	r := c.New(n, seed)
	origs := c.Origs(n, seed)
	policy, pids := wrap(fam.NewPolicy(seed, n))
	plan := fam.NewPlan(seed, n)
	var res sched.Result
	if onVexec {
		fr, ok := r.(vexec.FrameRenamer)
		if !ok {
			t.Fatalf("%s does not compile to frames", c.Name)
		}
		got, oks := make([]int64, n), make([]bool, n)
		res = vexec.RunOne(vexec.BatchSpec{N: n, Names: origs, Model: fam.Model, Policy: policy, Plan: plan,
			Root: func(p *shmem.Proc) vexec.Frame {
				return vexec.Capture(fr.FrameRename(p.Name()), &got[p.ID()], &oks[p.ID()])
			}})
	} else {
		res = check.DriveModel(r, n, origs, fam.Model, policy, plan).Res
	}
	if res.Err != nil {
		t.Fatalf("%s/%s n=%d seed=%#x: %v", c.Name, fam.Name, n, seed, res.Err)
	}
	return *pids, res.Fingerprint
}

// TestPolicyEntryPointsAgree holds every shipped family's policy to the
// sched.IterPolicy contract: driven through Next (with the engine's pending
// slice) and through NextIter, it makes the same decisions — identical pid
// sequences and schedule fingerprints — on both engines, over many seeds.
// A divergence would make a schedule depend on whether the caller holds a
// plain Policy (a PolicyFunc wrapper, say) or the policy itself. Under
// -short it drives 3 seeds a cell instead of 12.
func TestPolicyEntryPointsAgree(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 3
	}
	byName := make(map[string]conformance.Case)
	for _, c := range conformance.Cases() {
		byName[c.Name] = c
	}
	next := func(p sched.Policy) (sched.Policy, *[]int) { v := &viaNext{p: p}; return v, &v.pids }
	iter := func(p sched.Policy) (sched.Policy, *[]int) {
		v := &viaIter{p: p.(sched.IterPolicy)}
		return v, &v.pids
	}
	for _, fam := range append(All(), FaultFamilies()...) {
		if _, ok := fam.NewPolicy(1, 2).(sched.IterPolicy); !ok {
			t.Errorf("%s: policy does not implement sched.IterPolicy", fam.Name)
			continue
		}
		for _, name := range equivCases {
			c := byName[name]
			for _, n := range []int{2, 3, 5, 8} {
				for s := uint64(0); s < seeds; s++ {
					seed := xrand.Mix(s, uint64(n))
					for _, onVexec := range []bool{false, true} {
						pidsN, fpN := driveFamily(t, fam, c, n, seed, onVexec, next)
						pidsI, fpI := driveFamily(t, fam, c, n, seed, onVexec, iter)
						if !slices.Equal(pidsN, pidsI) || fpN != fpI {
							t.Fatalf("%s/%s n=%d seed=%#x vexec=%v: Next and NextIter disagree (fingerprints %#x vs %#x, %d vs %d decisions)",
								name, fam.Name, n, seed, onVexec, fpN, fpI, len(pidsN), len(pidsI))
						}
					}
				}
			}
		}
	}
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
	plain := func(p sched.Policy) (sched.Policy, *[]int) { return p, new([]int) }
	for _, fam := range append(All(), FaultFamilies()...) {
		var h uint64
		for _, name := range equivCases {
			for _, n := range []int{2, 5, 16} {
				for s := uint64(0); s < 8; s++ {
					_, fp := driveFamily(t, fam, byName[name], n, xrand.Mix(s, uint64(n)), true, plain)
					h = xrand.Mix(h, fp)
				}
			}
		}
		if want := familyDigests[fam.Name]; h != want {
			t.Errorf("%s: schedule digest %#x, want %#x", fam.Name, h, want)
		}
	}
}
