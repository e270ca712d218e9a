package shmem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRegZeroValueIsNull(t *testing.T) {
	var r Reg
	if got := r.Peek(); got != Null {
		t.Fatalf("zero register holds %d, want Null", got)
	}
}

func TestProcReadWriteCountsSteps(t *testing.T) {
	p := NewProc(0, 1, nil)
	var r Reg
	p.Write(&r, 7)
	if got := p.Read(&r); got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	if got := p.Steps(); got != 2 {
		t.Fatalf("steps = %d, want 2", got)
	}
}

func TestRefRoundTrip(t *testing.T) {
	type payload struct{ a, b int }
	p := NewProc(0, 1, nil)
	var r Ref[payload]
	if got := ReadRef(p, &r); got != nil {
		t.Fatalf("zero Ref holds %v, want nil", got)
	}
	WriteRef(p, &r, &payload{a: 1, b: 2})
	got := ReadRef(p, &r)
	if got == nil || got.a != 1 || got.b != 2 {
		t.Fatalf("ReadRef = %+v, want {1 2}", got)
	}
	if p.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", p.Steps())
	}
}

func TestNewProcRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for name 0")
		}
	}()
	NewProc(0, 0, nil)
}

type recordingGate struct {
	intents []Intent
}

func (g *recordingGate) Step(pid int, intent Intent) {
	g.intents = append(g.intents, intent)
}

func TestGateSeesIntents(t *testing.T) {
	g := &recordingGate{}
	p := NewProc(3, 9, g)
	var r Reg
	p.Read(&r)
	p.Write(&r, 5)
	if len(g.intents) != 2 {
		t.Fatalf("gate saw %d intents, want 2", len(g.intents))
	}
	if g.intents[0].Kind != OpRead || g.intents[1].Kind != OpWrite {
		t.Fatalf("intent kinds = %v, %v", g.intents[0].Kind, g.intents[1].Kind)
	}
	if g.intents[0].Reg != any(&r) || g.intents[1].Reg != any(&r) {
		t.Fatal("intent register identity does not match target")
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown OpKind should still format")
	}
}

func TestRegFileStablePointers(t *testing.T) {
	var f RegFile
	a := f.Get(1)
	b := f.Get(5000) // forces growth across chunks
	if f.Get(1) != a {
		t.Fatal("register pointer changed after growth")
	}
	if f.Get(5000) != b {
		t.Fatal("register pointer not stable")
	}
	a.Poke(11)
	if f.Get(1).Peek() != 11 {
		t.Fatal("register contents lost")
	}
}

func TestRegFileRejectsIndexZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for index 0")
		}
	}()
	var f RegFile
	f.Get(0)
}

// Allocated returns the number of registers currently backed by memory
// (a multiple of the chunk size).
func (f *RegFile) Allocated() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.chunks)) * fileChunk
}

func TestRegFileConcurrentGet(t *testing.T) {
	var f RegFile
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(1); i <= 2000; i++ {
				f.Get(i)
			}
		}(g)
	}
	wg.Wait()
	if f.Allocated() < 2000 {
		t.Fatalf("allocated %d registers, want >= 2000", f.Allocated())
	}
}

func TestRegFileScan(t *testing.T) {
	var f RegFile
	f.Get(3).Poke(42)
	var seen []int64
	f.Scan(4, func(i, v int64) { seen = append(seen, v) })
	want := []int64{0, 0, 42, 0}
	for i, v := range want {
		if seen[i] != v {
			t.Fatalf("Scan[%d] = %d, want %d", i, seen[i], v)
		}
	}
}

func TestRegFileScanBeyondAllocation(t *testing.T) {
	var f RegFile
	count := 0
	f.Scan(10, func(i, v int64) {
		if v != Null {
			t.Fatalf("unallocated register %d reads %d, want Null", i, v)
		}
		count++
	})
	if count != 10 {
		t.Fatalf("Scan visited %d registers, want 10", count)
	}
}

func TestRegHoldsArbitraryValues(t *testing.T) {
	f := func(v int64) bool {
		var r Reg
		p := NewProc(0, 1, nil)
		p.Write(&r, v)
		return p.Read(&r) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
