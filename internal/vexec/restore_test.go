package vexec_test

// Restore puts back only the lanes that moved since the capture. These tests
// pin the other half of that contract: a lane no grant or restart touched
// keeps its frames, its Proc and its result, and the engine still
// lands exactly on the captured decision point.

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// opsFrame performs a fixed sequence of accesses to one register — true
// writes the lane's name, false reads — and returns the last value it wrote
// or read.
type opsFrame struct {
	r    *shmem.Reg
	ops  []bool
	pc   int
	last int64
}

func (f *opsFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.pc > 0 {
		if f.ops[f.pc-1] {
			p.Write(f.r, p.Name())
			f.last = p.Name()
		} else {
			f.last = p.Read(f.r)
		}
	}
	if f.pc == len(f.ops) {
		return m.Return(f.last, true)
	}
	f.pc++
	if f.ops[f.pc-1] {
		return m.Intend(shmem.OpWrite, f.r)
	}
	return m.Intend(shmem.OpRead, f.r)
}

// Save and Load implement vexec.Cloner: ops is never written, so a struct
// copy shares it safely.
func (f *opsFrame) Save(dst vexec.Frame) vexec.Frame { return vexec.SaveValue(f, dst) }
func (f *opsFrame) Load(src vexec.Frame)             { *f = *src.(*opsFrame) }

// TestRestoreLeavesUnmovedLanes: capture with lane 0 Done and lane 1
// pending, run a continuation that grants only lane 1, and restore. Lane 0's
// result must survive, lane 1's continuation result must be gone with the
// rest of its state, the engine must be back at the capture (register,
// fingerprint, pending set, intents), and the restore must have built no
// root frame.
func TestRestoreLeavesUnmovedLanes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model shmem.Model
	}{
		{"failstop", shmem.Model{}},
		{"recovery", shmem.Model{Recovery: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r shmem.Reg
			lanes := [][]bool{{true}, {false, true, false}}
			roots := make([]int, 2)
			e := vexec.New(2, []int64{10, 20}, func(p *shmem.Proc) vexec.Frame {
				roots[p.ID()]++
				return &opsFrame{r: &r, ops: lanes[p.ID()]}
			})
			if !tc.model.Atomic() {
				e.SetModel(tc.model)
			}
			e.EnableState()
			e.Step(0) // lane 0 writes and finishes
			e.Step(1) // lane 1 reads 10, then posts its write
			if !e.Done(0) || e.PendingCount() != 1 {
				t.Fatalf("setup: lane 0 done=%v, %d pending", e.Done(0), e.PendingCount())
			}
			if v, ok := e.Returned(0); v != 10 || !ok {
				t.Fatalf("setup: lane 0 returned (%d, %v)", v, ok)
			}
			snap := e.Checkpoint()
			wantReg, wantFP := r.Peek(), e.Fingerprint()
			wantPending := sched.Pending(e, nil)
			wantIntent := e.Intent(1)

			// The divergent continuation grants lane 1 only: under the
			// recovery model it crashes and restarts the lane first.
			if tc.model.Recovery {
				e.Crash(1)
				e.Restart(1)
			}
			for e.PendingCount() > 0 {
				e.Step(1)
			}
			if !e.Done(1) {
				t.Fatal("continuation did not finish lane 1")
			}
			divergent, _ := e.Returned(1)
			wantRoots := slices.Clone(roots) // a restart re-roots lane 1 too

			e.Restore(snap)
			if v, ok := e.Returned(0); v != 10 || !ok {
				t.Fatalf("lane 0 Returned (%d, %v) after restore", v, ok)
			}
			if v, ok := e.Returned(1); ok {
				t.Fatalf("lane 1 kept its continuation result %d after restore", v)
			}
			if v := r.Peek(); v != wantReg {
				t.Fatalf("register %d after restore, captured %d", v, wantReg)
			}
			if fp := e.Fingerprint(); fp != wantFP {
				t.Fatalf("fingerprint %#x, captured %#x", fp, wantFP)
			}
			if p := sched.Pending(e, nil); !slices.Equal(p, wantPending) {
				t.Fatalf("pending %v, captured %v", p, wantPending)
			}
			if in := e.Intent(1); in != wantIntent {
				t.Fatalf("lane 1 intent %+v, captured %+v", in, wantIntent)
			}
			if !slices.Equal(roots, wantRoots) {
				t.Fatalf("root builder runs %v after restore, want %v: a restore copies frames back", roots, wantRoots)
			}

			// The restored lane resumes where it was captured: finishing it
			// yields the continuation's outcome at the captured step count.
			for e.PendingCount() > 0 {
				e.Step(1)
			}
			if v, ok := e.Returned(1); v != divergent || !ok {
				t.Fatalf("lane 1 after restore returned (%d, %v), divergent run %d", v, ok, divergent)
			}
			if res := e.Result(); res.Steps[0] != 1 || res.Steps[1] != 3 {
				t.Fatalf("steps after restore %v, want [1 3]", res.Steps)
			}
		})
	}
}
