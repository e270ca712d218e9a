package adversary

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// spinBody gives every process a fixed number of read steps on a shared
// register, enough to observe scheduling orders.
func spinBody(r *shmem.Reg, steps int) sched.Body {
	return func(p *shmem.Proc) {
		for i := 0; i < steps; i++ {
			p.Read(r)
		}
	}
}

// TestStarverDefersVictim verifies the defining property: the victim takes
// its first step only after every non-victim has finished.
func TestStarverDefersVictim(t *testing.T) {
	const n, victim = 6, 2
	var r shmem.Reg
	var order []int
	base := NewStarver(7, n, victim)
	res := sched.Run(n, nil, sched.PolicyFunc(func(c sched.Engine) int {
		pid := base.Next(c)
		order = append(order, pid)
		return pid
	}), nil, spinBody(&r, 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	firstVictim := -1
	lastOther := -1
	for i, pid := range order {
		if pid == victim && firstVictim < 0 {
			firstVictim = i
		}
		if pid != victim {
			lastOther = i
		}
	}
	if firstVictim < 0 {
		t.Fatal("victim never ran (wait-freedom of the harness broken)")
	}
	if firstVictim < lastOther {
		t.Fatalf("victim stepped at decision %d before non-victims finished (last at %d)", firstVictim, lastOther)
	}
}

// TestWriteBlockerPrefersReaders verifies the intent-aware property: a
// writer is granted only when no reader is pending.
func TestWriteBlockerPrefersReaders(t *testing.T) {
	const n = 5
	var a, b shmem.Reg
	body := func(p *shmem.Proc) {
		p.Read(&a)
		p.Write(&b, p.Name())
		p.Read(&b)
	}
	wb := NewWriteBlocker(3)
	var pending []int
	res := sched.Run(n, nil, sched.PolicyFunc(func(c sched.Engine) int {
		pending = sched.Pending(c, pending)
		pid := wb.Next(c)
		if c.Intent(pid).Kind == shmem.OpWrite {
			for _, q := range pending {
				if c.Intent(q).Kind == shmem.OpRead {
					t.Fatalf("granted writer %d while reader %d was pending", pid, q)
				}
			}
		}
		return pid
	}), nil, body)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestCollapseWindow verifies contention collapse: with k=2, at most two
// distinct processes are ever interleaved before one of them terminates.
func TestCollapseWindow(t *testing.T) {
	const n, k = 8, 2
	var r shmem.Reg
	cl := NewCollapse(11, n, k)
	active := make(map[int]bool)
	done := make(map[int]bool)
	var mu_order, pending []int
	res := sched.Run(n, nil, sched.PolicyFunc(func(c sched.Engine) int {
		pending = sched.Pending(c, pending)
		// Retire window members that terminated since the last decision.
		for pid := range active {
			found := false
			for _, q := range pending {
				if q == pid {
					found = true
				}
			}
			if !found {
				delete(active, pid)
				done[pid] = true
			}
		}
		pid := cl.Next(c)
		if done[pid] {
			t.Fatalf("terminated process %d scheduled again", pid)
		}
		active[pid] = true
		if len(active) > k {
			t.Fatalf("contention window grew to %d > %d: %v", len(active), k, active)
		}
		mu_order = append(mu_order, pid)
		return pid
	}), nil, spinBody(&r, 3))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(mu_order) != n*3 {
		t.Fatalf("executed %d grants, want %d", len(mu_order), n*3)
	}
}

// TestLockstepCohortRounds verifies the rotation shape: grants arrive in
// cohort blocks — each block is one cohort's round, every member exactly
// once — alternating between the cohorts for as long as everyone is live.
func TestLockstepCohortRounds(t *testing.T) {
	const n, g, steps = 6, 3, 5
	var r shmem.Reg
	ls := NewLockstep(5, n, g)
	cohortOf := make(map[int]int)
	for ci, cohort := range ls.cohorts {
		for _, pid := range cohort {
			cohortOf[pid] = ci
		}
	}
	var order []int
	res := sched.Run(n, nil, sched.PolicyFunc(func(c sched.Engine) int {
		pid := ls.Next(c)
		order = append(order, pid)
		return pid
	}), nil, spinBody(&r, steps))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(order) != n*steps {
		t.Fatalf("executed %d grants, want %d", len(order), n*steps)
	}
	// All processes stay live for the whole execution (equal step counts),
	// so every block of g grants is one complete cohort round.
	for b := 0; b*g < len(order); b++ {
		block := order[b*g : (b+1)*g]
		seen := make(map[int]bool)
		for _, pid := range block {
			if cohortOf[pid] != cohortOf[block[0]] {
				t.Fatalf("block %d mixes cohorts: %v", b, block)
			}
			if seen[pid] {
				t.Fatalf("block %d repeats process %d: %v", b, pid, block)
			}
			seen[pid] = true
		}
		if b > 0 && cohortOf[block[0]] == cohortOf[order[(b-1)*g]] {
			t.Fatalf("block %d did not rotate cohorts: %v after %v", b, block, order[(b-1)*g:b*g])
		}
	}
}

// TestCrashOnWriteOnlyCrashesWriters verifies the plan never crashes a
// process on a read intent and respects the crash budget.
func TestCrashOnWriteOnlyCrashesWriters(t *testing.T) {
	const n = 8
	var a, b shmem.Reg
	plan := CrashOnWrite(13, 1.0, n-1) // crash every posted write until budget
	crashedOnRead := false
	wrapped := sched.CrashPlanFunc(func(pid int, steps int64, intent shmem.Intent) bool {
		crash := plan.ShouldCrash(pid, steps, intent)
		if crash && intent.Kind == shmem.OpRead {
			crashedOnRead = true
		}
		return crash
	})
	res := sched.Run(n, nil, sched.NewRandom(1), wrapped, func(p *shmem.Proc) {
		p.Read(&a)
		p.Write(&b, p.Name())
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if crashedOnRead {
		t.Fatal("CrashOnWrite crashed a process on a read intent")
	}
	crashes := 0
	for _, c := range res.Crashed {
		if c {
			crashes++
		}
	}
	if crashes != n-1 {
		t.Fatalf("%d crashes, want %d (prob 1.0, budget n-1)", crashes, n-1)
	}
	// The posted writes of crashed processes must never have landed.
	if got := b.Peek(); got == shmem.Null {
		t.Fatal("survivor's write missing")
	}
}

// CrashLateWriters crashes every process except the survivors on its w-th
// posted write (counting posted, not executed, writes). It models an
// adversary that lets processes invest work — reads, early claims — and
// kills them mid-protocol, maximizing the spoiled state survivors must
// tolerate.
func CrashLateWriters(w int, survivors ...int) sched.CrashPlan {
	if w < 1 {
		w = 1
	}
	surv := make(map[int]bool, len(survivors))
	for _, s := range survivors {
		surv[s] = true
	}
	writes := make(map[int]int)
	return sched.CrashPlanFunc(func(pid int, steps int64, intent shmem.Intent) bool {
		if surv[pid] || intent.Kind != shmem.OpWrite {
			return false
		}
		writes[pid]++
		return writes[pid] >= w
	})
}

// TestCrashLateWritersSurvivorCompletes pins CrashLateWriters: non-survivors
// die on their w-th posted write, survivors finish.
func TestCrashLateWritersSurvivorCompletes(t *testing.T) {
	const n = 4
	var a shmem.Reg
	res := sched.Run(n, nil, &sched.RoundRobin{}, CrashLateWriters(2, 0), func(p *shmem.Proc) {
		for i := 0; i < 3; i++ {
			p.Write(&a, p.Name())
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for pid := 1; pid < n; pid++ {
		if !res.Crashed[pid] {
			t.Fatalf("process %d survived, want crashed on 2nd write", pid)
		}
		if res.Steps[pid] != 1 {
			t.Fatalf("process %d took %d steps, want 1 (first write lands, second crashes)", pid, res.Steps[pid])
		}
	}
	if res.Crashed[0] {
		t.Fatal("survivor crashed")
	}
	if res.Steps[0] != 3 {
		t.Fatalf("survivor took %d steps, want 3", res.Steps[0])
	}
}

// TestFamiliesAreDeterministic replays every family twice with the same seed
// and checks the schedule fingerprints agree — the property reproducers
// depend on.
func TestFamiliesAreDeterministic(t *testing.T) {
	const n = 6
	for _, fam := range All() {
		fp := func() uint64 {
			var r shmem.Reg
			res := sched.Run(n, nil, fam.NewPolicy(21, n), fam.NewPlan(21, n), spinBody(&r, 8))
			if res.Err != nil {
				t.Fatalf("%s: %v", fam.Name, res.Err)
			}
			return res.Fingerprint
		}
		if a, b := fp(), fp(); a != b {
			t.Fatalf("family %s is not deterministic: fingerprints %#x vs %#x", fam.Name, a, b)
		}
	}
}

// TestFamilyLookup covers ByName and CrashFree.
func TestFamilyLookup(t *testing.T) {
	for _, fam := range All() {
		got, err := ByName(fam.Name)
		if err != nil || got.Name != fam.Name {
			t.Fatalf("ByName(%q) = %v, %v", fam.Name, got.Name, err)
		}
		wantCrashFree := fam.Plan == nil
		if CrashFree(fam.Name) != wantCrashFree {
			t.Fatalf("CrashFree(%q) = %v, want %v", fam.Name, !wantCrashFree, wantCrashFree)
		}
	}
	if _, err := ByName("no-such-family"); err == nil {
		t.Fatal("ByName accepted an unknown family")
	}
	if CrashFree("no-such-family") {
		t.Fatal("CrashFree true for unknown family")
	}
}

// TestReproducerRoundTrip pins the one-line spec format.
func TestReproducerRoundTrip(t *testing.T) {
	rep := Reproducer{Label: "broken", Family: "writeblock", N: 3, Seed: 0xdeadbeef12345678}
	line := rep.String()
	if strings.ContainsAny(line, "\n") {
		t.Fatalf("spec is not one line: %q", line)
	}
	back, err := Parse(line)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != rep.Label || back.Family != rep.Family || back.N != rep.N || back.Seed != rep.Seed {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, rep)
	}
	for _, bad := range []string{
		"algo=x family=y n=1 seed=0x1",            // missing prefix
		"adversary:algo=x family=y n=zero",        // bad n
		"adversary:algo=x",                        // incomplete
		"adversary:algo=x family=y n=2 seed=0xzz", // bad seed
		"adversary:bogus=1 algo=x family=y n=2",   // unknown field
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse accepted %q", bad)
		}
	}
}
