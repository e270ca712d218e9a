package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/afrename"
	"repro/internal/shmem"
)

// Adaptive is the algorithm Adaptive-Rename of Theorem 4: a fully adaptive
// renaming object with neither k nor N known. A process runs
// Efficient-Rename(2^i) for i = 0, 1, ..., ⌈lg n⌉ until a level assigns it a
// name. Level i's names occupy a dedicated block of 2^{i+1}-1 names, so a
// process renamed at level i* = ⌈lg k⌉ holds a name at most
// Σ_{i<=i*} (2^{i+1}-1) <= 8k - lg k - 1: the Theorem 4 bound.
//
// Bounds of Theorem 4: M = 8k - lg k - 1 names, O(k) local steps, O(n²)
// registers.
type Adaptive struct {
	nProcs int
	levels []*Efficient
	bases  []int64

	fallback      *afrename.Renamer
	fallbackCount atomic.Int64
}

// NewAdaptive builds the object for at most nProcs processes.
func NewAdaptive(nProcs int, cfg Config) *Adaptive {
	if nProcs < 1 {
		panic(fmt.Sprintf("core: invalid Adaptive parameter n=%d", nProcs))
	}
	cfg = cfg.normalize()
	a := &Adaptive{nProcs: nProcs}
	var base int64
	for i, width := 0, 1; ; i, width = i+1, width*2 {
		lvlCfg := cfg
		lvlCfg.Seed = subSeed(cfg.Seed, 0x400+uint64(i))
		// Levels fail cleanly when over-contended; the object-wide
		// fallback lane guarantees termination.
		lvl := NewEfficient(width, lvlCfg)
		a.levels = append(a.levels, lvl)
		a.bases = append(a.bases, base)
		base += lvl.MaxName() // block of 2^{i+1}-1 names
		if width >= nProcs {
			break
		}
	}
	a.fallback = afrename.New(nProcs)
	return a
}

// Levels returns the number of doubling levels (⌈lg n⌉+1).
func (a *Adaptive) Levels() int { return len(a.levels) }

// NameBound returns the Theorem 4 adaptive bound 8k - lg k - 1 for
// contention k >= 1 (at k = 1 the bound degenerates to the level-0 block).
func (a *Adaptive) NameBound(k int) int64 {
	if k <= 1 {
		return a.levels[0].MaxName()
	}
	return AdaptiveNameBound(k)
}

// AdaptiveNameBound returns NameBound(k) of every Adaptive, whatever its
// size, configuration and seed, without building one: the level-0 block is
// Efficient(1)'s single name.
func AdaptiveNameBound(k int) int64 {
	if k <= 1 {
		return 1
	}
	lg := bits.Len(uint(k - 1)) // ⌈lg k⌉
	return int64(8*k) - int64(lg) - 1
}

// MaxName implements Renamer: the union of all level blocks (worst case
// k = n). The adaptive claim is NameBound(k).
func (a *Adaptive) MaxName() int64 {
	last := len(a.levels) - 1
	return a.bases[last] + a.levels[last].MaxName()
}

// Registers implements Renamer: dominated by the top level's O(n²) grid.
func (a *Adaptive) Registers() int {
	r := a.fallback.Registers()
	for _, lvl := range a.levels {
		r += lvl.Registers()
	}
	return r
}

// FallbackCount returns how many renames were served by the fallback lane.
func (a *Adaptive) FallbackCount() int64 { return a.fallbackCount.Load() }

// Rename implements Renamer for arbitrary distinct non-null identities.
func (a *Adaptive) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for i, lvl := range a.levels {
		if name, ok := lvl.Rename(p, orig); ok {
			return a.bases[i] + name, true
		}
	}
	a.fallbackCount.Add(1)
	name, ok := a.fallback.Rename(p, p.ID(), orig)
	if !ok {
		return 0, false
	}
	return a.MaxName() + name, true
}
