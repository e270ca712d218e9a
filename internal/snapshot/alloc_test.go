package snapshot

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// roundsFrame drives r Update+Scan rounds through the frame automata,
// re-arming the embedded frames each round — the access pattern of every
// rename attempt loop built on the snapshot.
type roundsFrame struct {
	o    *Object[int64]
	r    int
	cnt  int
	uf   UpdateFrame[int64]
	sf   ScanFrame[int64]
	view []View[int64]
	pc   uint8
}

func (f *roundsFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.cnt >= f.r {
			return vexec.Done
		}
		f.pc = 1
		f.uf.Init(f.o, 0, int64(f.cnt))
		return m.Call(&f.uf)
	default:
		f.pc = 0
		f.cnt++
		f.sf.Init(f.o, &f.view)
		return m.Call(&f.sf)
	}
}

// TestFrameAllocsSteadyState pins the pooling contract of the snapshot
// frames: once a frame's scratch buffers exist, a round costs only the
// allocations that escape by design — the installed segment and the
// update's published view — not per-collect or per-Init scratch. A regression that
// re-allocates collect buffers or the moved table per round trips the bound
// (the pre-pooling code costs ~9 allocations a round; the pooled path ~3).
func TestFrameAllocsSteadyState(t *testing.T) {
	const rounds = 16
	o := New[int64](8)
	f := &roundsFrame{o: o, r: rounds}
	root := func(p *shmem.Proc) vexec.Frame {
		f.cnt, f.pc = 0, 0
		return f
	}
	e := vexec.New(1, nil, root)
	e.Run(&sched.RoundRobin{}, nil) // warm: first run grows the scratch

	avg := testing.AllocsPerRun(20, func() {
		e.Reset(nil, root)
		e.Run(&sched.RoundRobin{}, nil)
	})
	// Per round a solo process performs one Update (embedded scan's view +
	// the installed segment) and one Scan, whose view reuses the previous
	// round's buffer: 2 escaping allocations, plus a little engine slack.
	if max := float64(rounds*4 + 8); avg > max {
		t.Fatalf("steady-state frame drive allocates %.1f allocs/run, want <= %.0f (scratch pooling regressed)", avg, max)
	}
}

// scansFrame performs r decision scans, each re-armed with Init into the
// same view buffer — the access pattern of afrename's decision scan.
type scansFrame struct {
	o    *Object[int64]
	r    int
	cnt  int
	sf   ScanFrame[int64]
	view []View[int64]
}

func (f *scansFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.cnt >= f.r {
		return vexec.Done
	}
	f.cnt++
	f.sf.Init(f.o, &f.view)
	return m.Call(&f.sf)
}

// TestPrivateScanAllocsNothing pins the reused-view contract: once the
// frame's scratch and view buffer exist, a re-armed decision scan allocates
// nothing, so a run's allocations are the engine's fixed slack whatever the
// number of scans.
func TestPrivateScanAllocsNothing(t *testing.T) {
	const scans = 64
	o := New[int64](8)
	writer := shmem.NewProc(0, 1, nil)
	for i := 0; i < 8; i += 2 {
		o.Update(writer, i, int64(i)) // a mix of set and unset segments
	}
	f := &scansFrame{o: o, r: scans}
	root := func(p *shmem.Proc) vexec.Frame {
		f.cnt = 0
		return f
	}
	e := vexec.New(1, nil, root)
	e.Run(&sched.RoundRobin{}, nil) // warm: first run grows the buffers

	avg := testing.AllocsPerRun(20, func() {
		e.Reset(nil, root)
		e.Run(&sched.RoundRobin{}, nil)
	})
	if avg > 8 {
		t.Fatalf("%d re-armed private scans allocate %.1f allocs/run, want <= 8 (the engine's slack)", scans, avg)
	}
	for i, v := range f.view {
		if v.Set != (i%2 == 0) || v.Set && v.Data != int64(i) {
			t.Fatalf("private view entry %d = %+v", i, v)
		}
	}
}
