package vexec_test

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// writeOnceFrame writes the lane's pid+1 to reg once and finishes: the frame
// form of writeOnceBody.
type writeOnceFrame struct {
	reg    *shmem.Reg
	posted bool
}

func (f *writeOnceFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if !f.posted {
		f.posted = true
		return m.Intend(shmem.OpWrite, f.reg)
	}
	p.Write(f.reg, int64(p.ID()+1))
	return vexec.Done
}

func writeOnceBody(reg *shmem.Reg) sched.Body {
	return func(p *shmem.Proc) { p.Write(reg, int64(p.ID()+1)) }
}

// TestMisusePanicsOnBothEngines: every misuse of the decision surface panics
// on both engines, naming the pid and its phase where one is involved. The
// checks live in the ledger both engines embed; this table holds each engine
// to them.
func TestMisusePanicsOnBothEngines(t *testing.T) {
	engines := []struct {
		name string
		new  func(n int, m shmem.Model) sched.SearchEngine
	}{
		{"goroutine", func(n int, m shmem.Model) sched.SearchEngine {
			var reg shmem.Reg
			c := sched.NewController(n, nil, writeOnceBody(&reg))
			c.SetModel(m)
			return c
		}},
		{"vexec", func(n int, m shmem.Model) sched.SearchEngine {
			var reg shmem.Reg
			e := vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame { return &writeOnceFrame{reg: &reg} })
			e.SetModel(m)
			return e
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			// pid 0 done, pid 1 crashed, pid 2 still pending.
			e := eng.new(3, shmem.Model{})
			defer e.Abort()
			e.Step(0)
			e.Crash(1)
			for _, tc := range []struct {
				pid   int
				phase string
			}{{0, "done"}, {1, "crashed"}} {
				mustPanic(t, fmt.Sprintf("process %d (phase %s)", tc.pid, tc.phase), func() { e.Step(tc.pid) })
				mustPanic(t, fmt.Sprintf("Crash(%d) of non-pending process (phase %s)", tc.pid, tc.phase), func() { e.Crash(tc.pid) })
				mustPanic(t, fmt.Sprintf("Intent(%d) of non-pending process (phase %s)", tc.pid, tc.phase), func() { e.Intent(tc.pid) })
			}
			mustPanic(t, "grant to process -1 outside [0..3)", func() { e.Step(-1) })
			mustPanic(t, "grant to process 3 outside [0..3)", func() { e.Step(3) })
			mustPanic(t, "StepStale(2, 0) with 0 stale choices", func() { e.StepStale(2, 0) })
			mustPanic(t, "Restart without a recovery model", func() { e.Restart(1) })
			mustPanic(t, "SetModel after grants were issued", func() { e.SetModel(shmem.Model{Recovery: true}) })

			r := eng.new(2, shmem.Model{Recovery: true, MaxRestarts: 1})
			defer r.Abort()
			mustPanic(t, "Restart(0) of non-crashed process (phase pending)", func() { r.Restart(0) })
			r.Crash(0)
			r.Crash(1)
			r.Restart(0)
			mustPanic(t, "Restart(1) beyond the model's budget of 1", func() { r.Restart(1) })
			mustPanic(t, "Restart of process 2 outside [0..2)", func() { r.Restart(2) })
		})
	}
}
