package snapshot

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// roundsFrame drives r Update+Scan rounds through the frame automata,
// re-arming the update frame each round and its scan frame for the scan —
// the access pattern of every rename attempt loop built on the snapshot.
type roundsFrame struct {
	o   *Object[int64]
	r   int
	cnt int
	uf  UpdateFrame[int64]
	pc  uint8
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
		sf := f.uf.Scan()
		sf.Init(f.o)
		return m.Call(sf)
	}
}

// TestFrameAllocsSteadyState pins the pooling contract of the snapshot
// frames: once a frame's scratch buffers exist, a round costs only the
// allocations that escape by design — the installed segment and the copy of
// the collect it embeds — not per-collect or per-Init scratch. A regression that
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
	// Per round a solo process performs one Update (the embedded collect's
	// copy + the installed segment) and one Scan, read in place on the
	// update's scan frame: 2 escaping allocations, plus a little engine slack.
	if max := float64(rounds*4 + 8); avg > max {
		t.Fatalf("steady-state frame drive allocates %.1f allocs/run, want <= %.0f (scratch pooling regressed)", avg, max)
	}
}

// scansFrame performs r decision scans, each re-armed with Init — the
// access pattern of afrename's decision scan.
type scansFrame struct {
	o   *Object[int64]
	r   int
	cnt int
	sf  ScanFrame[int64]
}

func (f *scansFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.cnt >= f.r {
		return vexec.Done
	}
	f.cnt++
	f.sf.Init(f.o)
	return m.Call(&f.sf)
}

// TestPrivateScanAllocsNothing pins the in-place view contract: once the
// frame's scratch exists, a re-armed decision scan allocates nothing, so a
// run's allocations are the engine's fixed slack whatever the number of
// scans.
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
	for i, v := range entries(f.sf.View()) {
		if v.Set != (i%2 == 0) || v.Set && v.Data != int64(i) {
			t.Fatalf("private view entry %d = %+v", i, v)
		}
	}
}

// The byte bounds below use sixteen segments of [2]int64 values, so every
// object they count is an exact Go size class: a segment is 48 bytes, a
// collect of sixteen pointers 128 and a moved table of sixteen counts 16
// (a smaller one would share a 16-byte block of the tiny allocator).
type pairVal = [2]int64

const byteN = 16

var (
	segBytes     = uint64(unsafe.Sizeof(segment[pairVal]{}))
	collectBytes = uint64(byteN * unsafe.Sizeof((*segment[pairVal])(nil)))
)

// stepBytes returns the bytes the heap handed out while e granted pid one
// step.
func stepBytes(e *vexec.Exec, pid int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Step(pid)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// steps grants pid k steps.
func steps(e *vexec.Exec, pid, k int) {
	for ; k > 0; k-- {
		e.Step(pid)
	}
}

// updatesFrame performs r Updates of segment i through one re-armed
// UpdateFrame.
type updatesFrame struct {
	o         *Object[pairVal]
	i, r, cnt int
	uf        UpdateFrame[pairVal]
}

func (f *updatesFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.cnt >= f.r {
		return vexec.Done
	}
	f.cnt++
	f.uf.Init(f.o, f.i, pairVal{int64(f.cnt)})
	return m.Call(&f.uf)
}

// updaters returns an engine whose process j runs updates[j] Updates of
// segment j of a fresh byteN-segment object.
func updaters(updates ...int) (*vexec.Exec, *Object[pairVal]) {
	o := New[pairVal](byteN)
	e := vexec.New(len(updates), nil, func(p *shmem.Proc) vexec.Frame {
		return &updatesFrame{o: o, i: p.ID(), r: updates[p.ID()]}
	})
	return e, o
}

// minBytes returns the least of three measurements, each of a fresh run of
// the scenario: the runtime may allocate on its own now and then, never
// less.
func minBytes(scenario func() uint64) uint64 {
	best := scenario()
	for k := 0; k < 2; k++ {
		best = min(best, scenario())
	}
	return best
}

// TestDirectUpdateBytes: an update whose scan sees two equal collects
// allocates its segment and a copy of the collect — the scan's buffer is
// scratch the next scan overwrites — and nothing else.
func TestDirectUpdateBytes(t *testing.T) {
	const scan = 2 * byteN // a solo scan is two collects
	var o *Object[pairVal]
	got := minBytes(func() uint64 {
		var e *vexec.Exec
		e, o = updaters(2)
		steps(e, 0, scan+1) // the first update grows the scratch
		steps(e, 0, scan-1)
		b := stepBytes(e, 0) // the scan's last read, then the segment is built
		steps(e, 0, 1)
		return b
	})
	if want := segBytes + collectBytes; got != want {
		t.Fatalf("a direct update allocates %d bytes, want %d (one segment of %d plus %d pointers)", got, want, segBytes, byteN)
	}
	if s := o.segs[0].PeekRef(); s.seq != 2 || len(s.view) != byteN || s.view[0] == nil || s.view[0].seq != 1 {
		t.Fatalf("the second update did not embed the first: %+v", s)
	}
}

// TestBorrowedUpdateBytes: an update whose scan borrows a mover's view
// allocates its segment only, and shares the mover's embedded slice.
func TestBorrowedUpdateBytes(t *testing.T) {
	const scan = 2 * byteN
	var o *Object[pairVal]
	got := minBytes(func() uint64 {
		var e *vexec.Exec
		e, o = updaters(2, 2)
		steps(e, 0, scan+1) // process 0's first update grows its scratch
		steps(e, 0, byteN)  // collect 1 of the second
		steps(e, 1, scan+1) // process 1 updates: segment 1 moves once
		steps(e, 0, byteN)  // collect 2
		steps(e, 1, scan+1) // and again: it has moved twice
		steps(e, 0, byteN-1)
		b := stepBytes(e, 0) // collect 3 ends borrowing process 1's view
		steps(e, 0, 1)
		return b
	})
	if got != segBytes {
		t.Fatalf("a borrowed update allocates %d bytes, want %d (one segment)", got, segBytes)
	}
	s0, s1 := o.segs[0].PeekRef(), o.segs[1].PeekRef()
	if s0.seq != 2 || s1.seq != 2 || len(s0.view) != byteN || &s0.view[0] != &s1.view[0] {
		t.Fatal("process 0's second update does not share process 1's embedded view")
	}
}

// scratchFrame reads a spare register, then runs one private scan, so the
// scan's Init happens inside the first granted step.
type scratchFrame struct {
	o     *Object[pairVal]
	spare shmem.Reg
	sf    ScanFrame[pairVal]
	pc    uint8
}

func (f *scratchFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.Intend(shmem.OpRead, &f.spare)
	case 1:
		p.Read(&f.spare)
		f.pc = 2
		f.sf.Init(f.o)
		return m.Call(&f.sf)
	default:
		return vexec.Done
	}
}

// TestScanFrameScratchBytes: a scan frame's scratch is one collect buffer of
// n pointers and a moved table of n bytes, allocated when it is first
// armed; the collects themselves allocate nothing more. The engine's own
// bytes in the arming step are measured on a frame armed beforehand, and
// taken off.
func TestScanFrameScratchBytes(t *testing.T) {
	var rest uint64
	armingStep := func(armed bool) uint64 {
		return minBytes(func() uint64 {
			f := &scratchFrame{o: New[pairVal](byteN)}
			if armed {
				f.sf.Init(f.o)
			}
			e := vexec.New(1, nil, func(*shmem.Proc) vexec.Frame { return f })
			b := stepBytes(e, 0) // the spare read, then Init and the first read's post
			rest = 0
			for e.PendingCount() > 0 {
				rest += stepBytes(e, 0)
			}
			return b
		})
	}
	scratch := armingStep(false) - armingStep(true)
	if want := collectBytes + byteN; scratch != want || rest != 0 {
		t.Fatalf("a scan frame's scratch is %d bytes and its collects %d more, want %d (%d pointers plus %d bytes) and 0", scratch, rest, want, byteN, byteN)
	}
}
