package snapshot

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// published is one embedded view an Update installed, with copies of its
// pointers and of the values they held taken when it was installed.
type published struct {
	view []*segment[int64]
	ptrs []*segment[int64]
	want []View[int64]
}

// entries returns every entry of v.
func entries[T any](v Collect[T]) []View[T] {
	out := make([]View[T], v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// materialize returns the view embedded collect c stands for.
func materialize(c []*segment[int64]) []View[int64] { return entries(Collect[int64]{c}) }

// changed reports whether pb's embedded view no longer holds the pointers,
// or the pointers no longer the values, it was installed with.
func (pb published) changed() bool {
	return !slices.Equal(pb.view, pb.ptrs) || !slices.Equal(materialize(pb.view), pb.want)
}

// decideFrame is the rename attempt loop's snapshot use: each round an
// Update (whose embedded view is published) followed by a decision scan on
// the update's scan frame, read in place. It records every decision view
// and every view its updates published.
type decideFrame struct {
	o      *Object[int64]
	i, r   int
	cnt    int
	uf     UpdateFrame[int64]
	views  [][]View[int64]
	pubs   *[]published
	pc     uint8
	t      *testing.T
	longer *int // scans that needed more than two collects
	start  int64
}

func (f *decideFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.cnt >= f.r {
			return vexec.Done
		}
		f.pc = 1
		f.uf.Init(f.o, f.i, int64(f.cnt+1))
		return m.Call(&f.uf)
	case 1:
		pub := f.o.segs[f.i].PeekRef().view
		*f.pubs = append(*f.pubs, published{view: pub, ptrs: slices.Clone(pub), want: materialize(pub)})
		f.pc = 2
		f.start = p.Steps()
		sf := f.uf.Scan()
		sf.Init(f.o)
		return m.Call(sf)
	default:
		if p.Steps()-f.start > int64(2*len(f.o.segs)) {
			*f.longer++
		}
		// The update's published view must survive the decision scan that
		// re-armed the update's scan frame untouched: the frame's collect
		// buffer does not alias it.
		last := (*f.pubs)[len(*f.pubs)-1]
		if last.changed() {
			f.t.Errorf("segment %d's published view changed by its own decision scan: %v, published %v", f.i, materialize(last.view), last.want)
		}
		if &f.uf.sf.c.buf[0] == &last.view[0] {
			f.t.Errorf("segment %d's published view aliases the scan frame's collect buffer", f.i)
		}
		view := f.uf.Scan().View()
		if view.Len() != len(f.o.segs) {
			f.t.Errorf("decision view has %d entries, want %d", view.Len(), len(f.o.segs))
		}
		f.views = append(f.views, entries(view))
		f.cnt++
		f.pc = 0
		return f.Run(m, p)
	}
}

// TestPrivateScanFrameMatchesScan is the differential test of the
// in-place ScanFrame view against the goroutine Scan: every process runs
// Update/decision-scan rounds under the same seeded random schedule on both
// engines, and every decision view's Len and At entries must equal Scan's
// Views, as must the schedule fingerprints. Every view an update published
// must also be unchanged at the end of the run, whatever scans re-armed the
// update's scan frame after it.
func TestPrivateScanFrameMatchesScan(t *testing.T) {
	const rounds = 5
	longer := 0
	for _, n := range []int{2, 3, 4} {
		for s := uint64(0); s < 24; s++ {
			seed := xrand.Mix(s, uint64(n))

			o := New[int64](n)
			want := make([][][]View[int64], n)
			gres := sched.Run(n, nil, sched.NewRandom(seed), nil, func(p *shmem.Proc) {
				for r := 0; r < rounds; r++ {
					o.Update(p, p.ID(), int64(r+1))
					want[p.ID()] = append(want[p.ID()], o.Scan(p))
				}
			})
			if gres.Err != nil {
				t.Fatal(gres.Err)
			}

			fo := New[int64](n)
			var pubs []published
			frames := make([]*decideFrame, n)
			e := vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
				f := &decideFrame{o: fo, i: p.ID(), r: rounds, pubs: &pubs, t: t, longer: &longer}
				frames[p.ID()] = f
				return f
			})
			vres := e.Run(sched.NewRandom(seed), nil)
			if vres.Err != nil {
				t.Fatal(vres.Err)
			}
			if vres.Fingerprint != gres.Fingerprint {
				t.Fatalf("n=%d seed=%#x: fingerprints differ: vexec %#x, goroutine %#x", n, seed, vres.Fingerprint, gres.Fingerprint)
			}
			for pid, f := range frames {
				for r := range want[pid] {
					if !slices.Equal(f.views[r], want[pid][r]) {
						t.Fatalf("n=%d seed=%#x: process %d round %d: private view %v, Scan %v", n, seed, pid, r, f.views[r], want[pid][r])
					}
				}
			}
			for _, pb := range pubs {
				if pb.changed() {
					t.Fatalf("n=%d seed=%#x: a published view changed after it was installed: %v, was %v", n, seed, materialize(pb.view), pb.want)
				}
			}
		}
	}
	if longer == 0 {
		t.Fatal("no decision scan ever needed a third collect; the schedules exercise only the quiet path")
	}
}

// TestScanBorrowsFirstDoubleMover: when one collect shows several segments
// moving for the second time, the scan borrows the view of the first of
// them in index order. Segments 1 and 2 each complete two updates during
// process 0's scan, 1 before 2 both times; 1's second update embedded
// [unset, 1, 1] and 2's [unset, 2, 1], and the current state is
// [unset, 2, 2].
func TestScanBorrowsFirstDoubleMover(t *testing.T) {
	const n, update = 3, 2*3 + 1 // a solo update is two collects and the write
	o := New[pairVal](n)
	sc := &scratchFrame{o: o}
	e := vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		if p.ID() == 0 {
			return sc
		}
		return &updatesFrame{o: o, i: p.ID(), r: 2}
	})
	steps(e, 0, 1+n) // the spare read, then collect 1
	for round := 0; round < 2; round++ {
		steps(e, 1, update)
		steps(e, 2, update)
		steps(e, 0, n)
	}
	if !e.Done(0) {
		t.Fatal("the scan did not end with its third collect")
	}
	set := func(v int64) View[pairVal] { return View[pairVal]{Data: pairVal{v}, Set: true} }
	if got, want := entries(sc.sf.View()), []View[pairVal]{{}, set(1), set(1)}; !slices.Equal(got, want) {
		t.Fatalf("scan returned %v, want segment 1's embedded view %v", got, want)
	}
}
