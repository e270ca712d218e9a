package vexec_test

import (
	"reflect"
	"testing"

	"repro/internal/compete"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// TestResultIntoMatchesResult: ResultInto refills one reused summary with
// exactly what Result allocates — Restarts non-nil exactly when a process
// restarted — across executions with and without restarts, and a refill of a
// warmed summary allocates nothing.
func TestResultIntoMatchesResult(t *testing.T) {
	ff := compete.NewFirstFit(3)
	root := func(p *shmem.Proc) vexec.Frame { return ff.FrameRename(p.Name(), nil) }
	e := vexec.New(3, nil, root)
	var reused sched.Result
	for run := 0; run < 6; run++ {
		if run > 0 {
			ff = compete.NewFirstFit(3)
			e.Reset(nil, root)
		}
		e.SetModel(shmem.Model{Recovery: true})
		if run%2 == 1 {
			e.Crash(run % 3)
			e.Restart(run % 3)
		}
		e.Run(sched.NewRandom(uint64(run)+1), nil)
		e.ResultInto(&reused)
		want := e.Result()
		if (want.Restarts != nil) != (run%2 == 1) {
			t.Fatalf("run %d: Result().Restarts = %v", run, want.Restarts)
		}
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("run %d: ResultInto %+v, Result %+v", run, reused, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { e.ResultInto(&reused) }); a != 0 {
		t.Fatalf("ResultInto into a warmed summary: %v allocations, want 0", a)
	}
}
