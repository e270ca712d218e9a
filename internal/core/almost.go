package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/afrename"
	"repro/internal/shmem"
)

// AlmostAdaptive is the algorithm Almost-Adaptive(N) of Theorem 3: an
// N-renaming object for a known original-name range [1..N] and unknown
// contention k <= n. A process runs PolyLog-Rename(2^i, N) for
// i = 0, 1, ..., ⌈lg n⌉ until one level assigns it a name; levels occupy
// disjoint register sets and consecutive name blocks, so at most k
// contenders acquire names within the first O(k) names.
//
// Bounds of Theorem 3: M = O(k) names,
// O(log²k·(log N + log k·log log N)) local steps, O(n·log(N/n)) registers.
//
// A fallback lane (snapshot renamer over n slots) guarantees termination
// against the residual sampled-expander risk at the top level; its names lie
// beyond all level blocks and its use is counted.
type AlmostAdaptive struct {
	nNames, nProcs int
	levels         []*PolyLog
	bases          []int64

	fallback      *afrename.Renamer
	fallbackCount atomic.Int64
}

// NewAlmostAdaptive builds the object for original names in [1..nNames] and
// at most nProcs processes.
func NewAlmostAdaptive(nNames, nProcs int, cfg Config) *AlmostAdaptive {
	cfg = cfg.normalize()
	a := &AlmostAdaptive{nNames: nNames, nProcs: nProcs}
	var base int64
	almostLevels(nNames, nProcs, func(i, width int) bool {
		lvlCfg := cfg
		lvlCfg.Seed = subSeed(cfg.Seed, 0x300+uint64(i))
		lvl := NewPolyLog(width, nNames, lvlCfg)
		a.levels = append(a.levels, lvl)
		a.bases = append(a.bases, base)
		base += lvl.MaxName()
		return true
	})
	a.fallback = afrename.New(nProcs)
	return a
}

// AlmostAdaptiveNameBound returns NameBound(k) of every
// AlmostAdaptive(nNames, nProcs) built under cfg, whatever its seed, without
// building its levels.
func AlmostAdaptiveNameBound(nNames, nProcs, k int, cfg Config) int64 {
	var bound int64
	almostLevels(nNames, nProcs, func(i, width int) bool {
		m, _ := PolyLogBounds(width, nNames, cfg)
		bound += m
		return width < k
	})
	return bound
}

// almostLevels lays out the doubling levels of an AlmostAdaptive over names
// [1..nNames] for at most nProcs processes: level i is a PolyLog(width,
// nNames) with width = min(2^i, nNames). It calls level for each level, up to
// the last or until level returns false.
func almostLevels(nNames, nProcs int, level func(i, width int) bool) {
	if nNames < 1 || nProcs < 1 {
		panic(fmt.Sprintf("core: invalid AlmostAdaptive parameters N=%d n=%d", nNames, nProcs))
	}
	for i, width := 0, 1; ; i, width = i+1, width*2 {
		if width > nNames {
			// Contention can never exceed the name range.
			width = nNames
		}
		if !level(i, width) || width >= nProcs || width >= nNames {
			return
		}
	}
}

// NameBound returns the name block boundary after the level that handles
// contention k: the adaptive bound M(k) = O(k) of Theorem 3.
func (a *AlmostAdaptive) NameBound(k int) int64 {
	for i, lvl := range a.levels {
		if lvl.K() >= k || i == len(a.levels)-1 {
			return a.bases[i] + lvl.MaxName()
		}
	}
	return a.MaxName()
}

// MaxName implements Renamer: the union of all level blocks (the worst-case
// k = n bound). The adaptive claim is NameBound(k).
func (a *AlmostAdaptive) MaxName() int64 {
	last := len(a.levels) - 1
	return a.bases[last] + a.levels[last].MaxName()
}

// Registers implements Renamer.
func (a *AlmostAdaptive) Registers() int {
	r := a.fallback.Registers()
	for _, lvl := range a.levels {
		r += lvl.Registers()
	}
	return r
}

// FallbackCount returns how many renames were served by the fallback lane.
func (a *AlmostAdaptive) FallbackCount() int64 { return a.fallbackCount.Load() }

// Rename implements Renamer for original names in [1..N].
func (a *AlmostAdaptive) Rename(p *shmem.Proc, orig int64) (int64, bool) {
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
