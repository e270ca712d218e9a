package check

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compete"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// idRenamer assigns pid+1: correct, bounded, two steps per process.
type idRenamer struct {
	slots []shmem.Reg
}

func (r *idRenamer) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	p.Read(&r.slots[p.ID()])
	p.Write(&r.slots[p.ID()], orig)
	return int64(p.ID() + 1), true
}

func (r *idRenamer) MaxName() int64 { return int64(len(r.slots)) }
func (r *idRenamer) Registers() int { return len(r.slots) }

func cleanRun(t *testing.T, k int, plan sched.CrashPlan) *Run {
	t.Helper()
	r := &idRenamer{slots: make([]shmem.Reg, k)}
	run := Drive(r, k, nil, sched.NewRandom(7), plan)
	if run.Res.Err != nil {
		t.Fatal(run.Res.Err)
	}
	return run
}

func TestDriveRecordShape(t *testing.T) {
	run := cleanRun(t, 5, nil)
	if run.K != 5 || len(run.Origs) != 5 || run.MaxName != 5 {
		t.Fatalf("record shape wrong: %+v", run)
	}
	if len(run.Names) != 5 || len(run.Failed) != 0 {
		t.Fatalf("expected 5 clean renames: %+v", run)
	}
	if run.Crashes() != 0 || run.Survivors() != 5 {
		t.Fatalf("crash accounting wrong: %d/%d", run.Crashes(), run.Survivors())
	}
	if run.Res.Fingerprint == 0 {
		t.Fatal("driven run has no schedule fingerprint")
	}
	if err := Basic().Check(run); err != nil {
		t.Fatalf("clean run fails the basic suite: %v", err)
	}
}

func TestDriveRecordsCrashes(t *testing.T) {
	run := cleanRun(t, 4, sched.CrashAllBut(2))
	if run.Crashes() != 3 || run.Survivors() != 1 {
		t.Fatalf("crash accounting wrong: %d crashed", run.Crashes())
	}
	if _, ok := run.Names[2]; !ok {
		t.Fatal("survivor missing from names")
	}
	if err := (Suite{Exclusive(), Returned(), AllRenamed()}).Check(run); err != nil {
		t.Fatalf("crashed run fails: %v", err)
	}
}

func TestExclusiveDetectsDuplicates(t *testing.T) {
	run := &Run{K: 3, Names: map[int]int64{0: 2, 1: 2, 2: 3}, Res: emptyResult(3)}
	err := Exclusive().Check(run)
	if err == nil || !strings.Contains(err.Error(), "name 2") {
		t.Fatalf("duplicate not detected: %v", err)
	}
	// Deterministic message: lowest pid pair reported.
	if !strings.Contains(err.Error(), "process 0") || !strings.Contains(err.Error(), "process 1") {
		t.Fatalf("nondeterministic duplicate report: %v", err)
	}
}

func TestExclusiveDetectsInvalidName(t *testing.T) {
	run := &Run{K: 1, Names: map[int]int64{0: 0}, Res: emptyResult(1)}
	if err := Exclusive().Check(run); err == nil {
		t.Fatal("invalid name 0 accepted")
	}
}

// TestExclusiveSmallMatchesMap pins the allocation-free path of Exclusive
// (runs of at most smallRun names) to the map path byte for byte: same
// verdict, same message, on clean runs, duplicates and invalid names.
func TestExclusiveSmallMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.IntN(smallRun)
		run := &Run{K: k, Names: make(map[int]int64), Res: emptyResult(k)}
		for pid := 0; pid < k; pid++ {
			if rng.IntN(4) > 0 {
				// Names drawn from a small range collide often; a few are 0.
				run.Names[pid] = int64(rng.IntN(3 * k))
			}
		}
		got, want := Exclusive().Check(run), exclusiveMap(run)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d, names %v: small path %v, map path %v", trial, run.Names, got, want)
		}
	}
}

func TestExclusiveSmallRunsAllocateNothing(t *testing.T) {
	run := cleanRun(t, 8, nil)
	ex := Exclusive()
	if a := testing.AllocsPerRun(100, func() {
		if err := ex.Check(run); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Exclusive on 8 names: %v allocations per check, want 0", a)
	}
}

// TestRunResetReuses: Reset leaves only the new execution's outcome in the
// record, and a refill of a warmed record allocates nothing.
func TestRunResetReuses(t *testing.T) {
	origs := []int64{10, 20, 30}
	res := emptyResult(3)
	res.Crashed[2] = true
	run := NewRun(origs, []int64{1, 0, 3}, []bool{true, false, true}, res, 5)
	if len(run.Names) != 1 || run.Names[0] != 1 || len(run.Failed) != 1 || run.Failed[0] != 1 {
		t.Fatalf("first record: names %v failed %v", run.Names, run.Failed)
	}
	clean := emptyResult(3)
	run.Reset(origs, []int64{3, 2, 1}, []bool{true, true, true}, clean, 7)
	if len(run.Names) != 3 || run.Names[2] != 1 || len(run.Failed) != 0 || run.MaxName != 7 || run.Crashes() != 0 {
		t.Fatalf("reset record: %+v", run)
	}
	if a := testing.AllocsPerRun(100, func() {
		run.Reset(origs, []int64{0, 2, 1}, []bool{false, true, true}, clean, 7)
	}); a != 0 {
		t.Fatalf("Reset of a warmed record: %v allocations, want 0", a)
	}
}

func TestNameRange(t *testing.T) {
	run := &Run{K: 2, MaxName: 3, Names: map[int]int64{0: 3, 1: 4}, Res: emptyResult(2)}
	if err := NameRange(0).Check(run); err == nil || !strings.Contains(err.Error(), "exceeds bound 3") {
		t.Fatalf("MaxName bound not applied: %v", err)
	}
	if err := NameRange(4).Check(run); err != nil {
		t.Fatalf("explicit bound 4 should pass: %v", err)
	}
}

// TestNameRangeNamesLowestPid: with two processes past the bound the
// checker names the lower pid on every call, whatever order the Names map
// iterates in; so does Exclusive's small path for two clashes.
func TestNameRangeNamesLowestPid(t *testing.T) {
	for i := 0; i < 100; i++ {
		run := &Run{K: 6, MaxName: 5, Names: map[int]int64{0: 1, 1: 2, 2: 3, 3: 9, 4: 4, 5: 8}, Res: emptyResult(6)}
		if err := NameRange(0).Check(run); err == nil || err.Error() != "process 3 name 9 exceeds bound 5" {
			t.Fatalf("call %d: %v, want process 3 named", i, err)
		}
		run.Names = map[int]int64{0: 1, 1: 2, 2: 2, 3: 4, 4: 1, 5: 3}
		if err := Exclusive().Check(run); err == nil || err.Error() != "name 2 held by both process 1 and process 2" {
			t.Fatalf("call %d: %v, want the clash of processes 1 and 2", i, err)
		}
	}
}

func TestStepBound(t *testing.T) {
	res := emptyResult(2)
	res.Steps = []int64{5, 9}
	run := &Run{K: 2, Res: res}
	if err := StepBound(8).Check(run); err == nil || !strings.Contains(err.Error(), "process 1") {
		t.Fatalf("step bound not enforced: %v", err)
	}
	if err := StepBound(9).Check(run); err != nil {
		t.Fatalf("bound 9 should pass: %v", err)
	}
	if err := StepBound(0).Check(run); err != nil {
		t.Fatalf("bound 0 must disable the check: %v", err)
	}
}

func TestReturned(t *testing.T) {
	run := &Run{K: 2, Names: map[int]int64{0: 1}, Res: emptyResult(2)}
	if err := Returned().Check(run); err == nil || !strings.Contains(err.Error(), "process 1") {
		t.Fatalf("unaccounted process not detected: %v", err)
	}
	run.Failed = []int{1}
	if err := Returned().Check(run); err != nil {
		t.Fatalf("failed process is accounted for: %v", err)
	}
}

func TestAllRenamed(t *testing.T) {
	run := &Run{K: 3, Names: map[int]int64{0: 1, 2: 3}, Failed: []int{1}, Res: emptyResult(3)}
	if err := AllRenamed().Check(run); err == nil || !strings.Contains(err.Error(), "process 1") {
		t.Fatalf("failure not detected: %v", err)
	}
}

func TestHalfRenamed(t *testing.T) {
	run := &Run{K: 4, Names: map[int]int64{0: 1}, Failed: []int{1, 2, 3}, Res: emptyResult(4)}
	if err := HalfRenamed().Check(run); err == nil {
		t.Fatal("1 of 4 renamed passed the majority check")
	}
	run.Names[1] = 2
	run.Failed = []int{2, 3}
	if err := HalfRenamed().Check(run); err != nil {
		t.Fatalf("2 of 4 renamed must pass: %v", err)
	}
	// With crashes the majority claim is vacated.
	crashed := &Run{K: 4, Names: map[int]int64{}, Failed: []int{3}, Res: emptyResult(4)}
	crashed.Res.Crashed[0] = true
	crashed.Res.Crashed[1] = true
	crashed.Res.Crashed[2] = true
	if err := HalfRenamed().Check(crashed); err != nil {
		t.Fatalf("crashed run must not fail the majority check: %v", err)
	}
}

func TestSuiteReportsCheckerName(t *testing.T) {
	run := &Run{K: 2, Names: map[int]int64{0: 1, 1: 1}, Res: emptyResult(2)}
	err := Basic().Check(run)
	if err == nil || !strings.Contains(err.Error(), "exclusive:") {
		t.Fatalf("suite error not prefixed with checker name: %v", err)
	}
	names := Basic().Names()
	if len(names) != 3 || names[0] != "exclusive" {
		t.Fatalf("suite names wrong: %v", names)
	}
	if err := Basic().Verdict(run); err == nil || err.Error() != "exclusive: name 1 held by both process 0 and process 1" {
		t.Fatalf("verdict of a clean-exit run is not the suite's: %v", err)
	}
	// A process panic preempts the checkers, even ones the record fails.
	run.Res.Err = errors.New("boom")
	if err := Basic().Verdict(run); err == nil || err.Error() != "process panic: boom" {
		t.Fatalf("verdict of a panicked run: %v", err)
	}
}

func TestAdHocChecker(t *testing.T) {
	c := New("custom", func(r *Run) error { return nil })
	if c.Name() != "custom" || c.Check(&Run{}) != nil {
		t.Fatal("ad-hoc checker adapter broken")
	}
}

func emptyResult(k int) sched.Result {
	return sched.Result{Steps: make([]int64, k), Crashed: make([]bool, k)}
}

// TestInstanceEnginesAgree drives fresh instances of one renamer through
// Body on the goroutine oracle and through Frames on the vectorized engine
// under the same seeded schedule and crash plan: the two records must be
// equal, down to the fingerprint, once Collect has read the vectorized
// engine's results. A renamer without frame automata has no Frames.
func TestInstanceEnginesAgree(t *testing.T) {
	const k = 4
	origs := []int64{40, 10, 30, 20}
	for seed := uint64(1); seed <= 8; seed++ {
		plan := func() sched.CrashPlan { return sched.RandomCrashes(seed, 0.2, k-1) }
		oracle := NewInstance(compete.NewFirstFit(k), k, origs)
		var want Run
		oracle.Record(&want, sched.Run(k, oracle.Origs, sched.NewRandom(seed), plan(), oracle.Body()))

		in := NewInstance(compete.NewFirstFit(k), k, origs)
		frames := in.Frames()
		if frames == nil {
			t.Fatal("firstfit ships frame automata, but Frames is nil")
		}
		var got Run
		e := vexec.New(k, in.Origs, frames)
		res := e.Run(sched.NewRandom(seed), plan())
		in.Collect(e)
		in.Record(&got, res)
		if want.Res.Err != nil || got.Res.Err != nil {
			t.Fatalf("seed %d: oracle err %v, vexec err %v", seed, want.Res.Err, got.Res.Err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: vexec record %+v, oracle %+v", seed, got, want)
		}
		if len(got.Names) == 0 {
			t.Fatalf("seed %d: nobody renamed", seed)
		}
	}
	if NewInstance(&idRenamer{slots: make([]shmem.Reg, k)}, k, nil).Frames() != nil {
		t.Fatal("a renamer without frame automata has Frames")
	}
}
