package model_test

// Class-set differential: source-DPOR with sleep sets must walk exactly one
// complete execution per Mazurkiewicz class, the same classes the exhaustive
// sleep-set walker reaches. The rules that let source-DPOR skip crash
// branches (dead branches settled unwalked, see explore.SourceDPOR) are
// justified by commutation arguments; this test checks their outcome
// directly, class by class, on cells rich in crash branching.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/compete"
	"repro/internal/conformance"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// classKey names the Mazurkiewicz class of a complete trace. Each event is
// named by (pid, per-pid index). For every pair of events of different
// processes on the same register, at least one a write, the key records
// which comes first; registers are compared within the one trace, so keys
// of different instances compare. Every crash, restart and stale-read
// variant adds (pid, index, variant). Two traces share a key exactly when
// one reorders commuting events of the other.
type classKey [sha256.Size]byte

// keyOf computes tr's class key, reusing the buffers in *s.
func keyOf(tr sched.Trace, s *keyScratch) classKey {
	s.idx = s.idx[:0]
	var count [64]uint16
	for _, e := range tr {
		s.idx = append(s.idx, count[e.Pid])
		count[e.Pid]++
	}
	name := func(i int) uint64 { return uint64(tr[i].Pid)<<16 | uint64(s.idx[i]) }
	s.words = s.words[:0]
	for j, e := range tr {
		switch {
		case e.Crash:
			s.words = append(s.words, 1<<62|name(j))
		case e.Restart:
			s.words = append(s.words, 2<<62|name(j))
		case e.Stale > 0:
			s.words = append(s.words, 3<<62|uint64(e.Stale)<<32|name(j))
		}
		if e.Crash || e.Restart {
			continue
		}
		for i := 0; i < j; i++ {
			d := tr[i]
			if d.Pid == e.Pid || d.Crash || d.Restart || d.Reg != e.Reg {
				continue
			}
			if d.Op == shmem.OpWrite || e.Op == shmem.OpWrite {
				s.words = append(s.words, name(i)<<32|name(j))
			}
		}
	}
	slices.Sort(s.words)
	s.buf = s.buf[:0]
	for _, w := range s.words {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, w)
	}
	return sha256.Sum256(s.buf)
}

type keyScratch struct {
	idx   []uint16
	words []uint64
	buf   []byte
}

// classSet walks the complete tree of the system with strat and returns the
// class key of every complete execution, failing on a repeated key.
func classSet(t *testing.T, strat explore.Strategy, n int, m shmem.Model, origs []int64, mk func() check.Renamer) map[classKey]bool {
	t.Helper()
	keys := map[classKey]bool{}
	var s keyScratch
	dup := 0
	st := explore.Drive(strat, explore.Config{
		N:     n,
		Model: m,
		Names: origs,
		Frame: func(int) func(p *shmem.Proc) vexec.Frame {
			fr := mk().(vexec.FrameRenamer)
			return func(p *shmem.Proc) vexec.Frame { return fr.FrameRename(p.Name(), nil) }
		},
		OnResult: func(run int, _ sched.Engine, tr sched.Trace, res sched.Result) bool {
			k := keyOf(tr, &s)
			if keys[k] {
				dup++
				if dup == 1 {
					t.Errorf("%T: execution %d repeats the class of an earlier one: %s", strat, run, tr)
				}
			}
			keys[k] = true
			return true
		},
	})
	if !st.Complete {
		t.Fatalf("%T: walk incomplete: %+v", strat, st)
	}
	if dup > 0 {
		t.Errorf("%T: %d executions repeat a class", strat, dup)
	}
	if st.Executions != len(keys)+dup {
		t.Fatalf("%T: %d executions reported, %d observed", strat, st.Executions, len(keys)+dup)
	}
	return keys
}

func TestCrashBranchingClassSets(t *testing.T) {
	cases := map[string]conformance.Case{}
	for _, tc := range conformance.Cases() {
		cases[tc.Name] = tc
	}
	type cell struct {
		name       string
		n, crashes int
		model      shmem.Model
		origs      []int64
		mk         func() check.Renamer
		classes    int // the class count both walkers must reach
		long       bool
	}
	pair := func(k int, classes int) cell {
		return cell{
			name: fmt.Sprintf("pair-k%d-c%d", k, k-1), n: k, crashes: k - 1,
			mk:      func() check.Renamer { return compete.NewFirstFit(1) },
			classes: classes, long: k >= 4,
		}
	}
	conf := func(algo string, n, crashes int, m shmem.Model, name string, classes int) cell {
		tc, ok := cases[algo]
		if !ok {
			t.Fatalf("conformance case %s missing", algo)
		}
		return cell{
			name: name, n: n, crashes: crashes, model: m, origs: tc.Origs(n, 1),
			mk:      func() check.Renamer { return tc.New(n, 1) },
			classes: classes,
		}
	}
	cells := []cell{
		pair(2, 44),
		pair(3, 1824),
		pair(4, 103152),
		conf("efficient", 2, 1, shmem.Model{}, "efficient-n2-c1", 35470),
		conf("basic", 5, 4, shmem.Model{}, "basic-n5-c4", 4651),
		conf("almostadaptive", 4, 3, shmem.Model{}, "almostadaptive-n4-c3", 4641),
		conf("majority", 3, 2, shmem.Model{}, "majority-n3-c2", 91),
		conf("firstfit", 2, 1, shmem.Model{Recovery: true}, "firstfit-n2-c1-recovery", 784),
		conf("firstfit", 2, 1, shmem.Model{Regs: shmem.RegSafe}, "firstfit-n2-c1-safe", 744),
		conf("firstfit", 2, 1, shmem.Model{Regs: shmem.RegRegular}, "firstfit-n2-c1-regular", 564),
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("exhaustive walk of over 100k classes; run without -short")
			}
			src := classSet(t, explore.NewSourceDPOR(0, c.crashes), c.n, c.model, c.origs, c.mk)
			ref := classSet(t, explore.NewSleepSet(0, c.crashes), c.n, c.model, c.origs, c.mk)
			missing, extra := 0, 0
			for k := range ref {
				if !src[k] {
					missing++
				}
			}
			for k := range src {
				if !ref[k] {
					extra++
				}
			}
			if missing+extra > 0 {
				t.Fatalf("source-DPOR walks %d classes, the sleep-set walker %d: %d missing, %d not reached by the reference",
					len(src), len(ref), missing, extra)
			}
			if len(ref) != c.classes {
				t.Fatalf("%d classes, want %d", len(ref), c.classes)
			}
			t.Logf("%d classes on both walkers", len(ref))
		})
	}
}
