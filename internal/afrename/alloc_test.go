package afrename

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/shmem"
	"repro/internal/vexec"
)

// acquirer drives back-to-back solo acquisitions through one RenameFrame on
// r, after one acquisition through a separate frame on warm, which grows the
// engine's call stack to the depth an acquisition reaches.
type acquirer struct {
	warm, r *Renamer
	wf, rf  RenameFrame
	started int // acquisitions begun on rf
	t       *testing.T
}

func (a *acquirer) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if a.started == 0 && a.wf.r == nil {
		a.wf.Init(a.warm, 0, 1)
		return m.Call(&a.wf)
	}
	if !m.RetB || m.RetI != 1 {
		a.t.Fatalf("a solo acquisition returned (%d, %v), want (1, true)", m.RetI, m.RetB)
	}
	a.started++
	a.rf.Init(a.r, 0, 1)
	return m.Call(&a.rf)
}

// TestRenameFrameScratchBytes: beyond the segment and the collect copy each
// attempt's update publishes, a rename frame's scratch is one collect buffer
// of n pointers and a moved table of n bytes, allocated on its first attempt;
// later attempts allocate nothing more. Both of an attempt's scans run on one
// scan frame and the decision reads its collect in place, so a second scan
// frame (another buffer and table) or a materialized decision view (n Views)
// shows up as bytes on the first attempt.
//
// Each solo acquisition is one attempt. An acquisition's bytes run from the
// step that arms it to the step that arms the next; the minimum of three
// fresh runs is taken, since the runtime may allocate on its own now and
// then, never less.
func TestRenameFrameScratchBytes(t *testing.T) {
	// Sixteen segments make every object an exact Go size class: a segment
	// (the entry, its sequence number and the embedded collect's slice
	// header) is 48 bytes, a collect 128 and a moved table 16.
	const n, acquisitions = 16, 4
	var (
		segBytes = uint64(unsafe.Sizeof(struct {
			data entry
			seq  int64
			view []unsafe.Pointer
		}{}))
		collectBytes = uint64(n * unsafe.Sizeof(unsafe.Pointer(nil)))
		published    = segBytes + collectBytes
	)
	run := func() []uint64 {
		a := &acquirer{warm: New(n), r: New(n), t: t}
		e := vexec.New(1, nil, func(*shmem.Proc) vexec.Frame { return a })
		bounds := make([]uint64, 0, acquisitions+1) // appends must not allocate
		var ms runtime.MemStats
		for len(bounds) <= acquisitions {
			runtime.ReadMemStats(&ms)
			before, started := ms.TotalAlloc, a.started
			e.Step(0)
			if a.started != started {
				bounds = append(bounds, before)
			}
		}
		got := make([]uint64, acquisitions)
		for k := range got {
			got[k] = bounds[k+1] - bounds[k]
		}
		return got
	}
	got := run()
	for r := 0; r < 2; r++ {
		for k, b := range run() {
			got[k] = min(got[k], b)
		}
	}
	if want := published + collectBytes + n; got[0] != want {
		t.Fatalf("the first attempt allocates %d bytes, want %d (a %d-byte segment and %d published pointers, plus %d scratch pointers and %d moved bytes)",
			got[0], want, segBytes, n, n, n)
	}
	for k, b := range got[1:] {
		if b != published {
			t.Fatalf("attempt %d allocates %d bytes, want %d (the published segment and collect only)", k+2, b, published)
		}
	}
}
