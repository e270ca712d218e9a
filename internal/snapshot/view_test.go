package snapshot

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// published is one embedded view an Update installed, with a copy taken
// when it was installed.
type published struct {
	view, want []View[int64]
}

// decideFrame is the rename attempt loop's snapshot use: each round an
// Update (whose embedded view is published) followed by a decision scan
// into the frame's private buffer. It records every decision view and every
// view its updates published.
type decideFrame struct {
	o      *Object[int64]
	i, r   int
	cnt    int
	uf     UpdateFrame[int64]
	sf     ScanFrame[int64]
	view   []View[int64]
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
		*f.pubs = append(*f.pubs, published{view: pub, want: slices.Clone(pub)})
		f.pc = 2
		f.start = p.Steps()
		f.sf.Init(f.o, &f.view)
		return m.Call(&f.sf)
	default:
		if p.Steps()-f.start > int64(2*len(f.o.segs)) {
			*f.longer++
		}
		// The update's published view must survive this frame's decision
		// scan untouched: the private buffer never aliases it.
		last := (*f.pubs)[len(*f.pubs)-1]
		if !slices.Equal(last.view, last.want) {
			f.t.Errorf("segment %d's published view changed by its own decision scan: %v, published %v", f.i, last.view, last.want)
		}
		if &f.view[0] == &last.view[0] {
			f.t.Errorf("segment %d's decision view aliases its published view", f.i)
		}
		f.views = append(f.views, slices.Clone(f.view))
		f.cnt++
		f.pc = 0
		return f.Run(m, p)
	}
}

// TestPrivateScanFrameMatchesScan is the differential test of the
// private-view ScanFrame against the goroutine Scan: every process runs
// Update/decision-scan rounds under the same seeded random schedule on both
// engines, and every decision view must come out equal, as must the
// schedule fingerprints. Every view an update published must also be
// unchanged at the end of the run, whatever private scans ran after it.
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
				if !slices.Equal(pb.view, pb.want) {
					t.Fatalf("n=%d seed=%#x: a published view changed after it was installed: %v, was %v", n, seed, pb.view, pb.want)
				}
			}
		}
	}
	if longer == 0 {
		t.Fatal("no decision scan ever needed a third collect; the schedules exercise only the quiet path")
	}
}
