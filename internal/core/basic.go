package core

import (
	"fmt"

	"repro/internal/expander"
	"repro/internal/shmem"
)

// Basic is the algorithm Basic-Rename(k,N) of Lemma 5: a (k,N)-renaming
// object built from ⌈lg k⌉+1 stages of Majority with geometrically shrinking
// contender bounds ℓ_i = ⌈k/2^i⌉. Each stage renames more than half of its
// surviving contenders, so after the last stage (ℓ = 1) everyone holds a
// name — with the paper-grade expander property; with sampled graphs this
// holds with high probability, and failures surface as ok=false for the
// caller's fallback.
//
// Bounds of Lemma 5 (paper profile): M = 24e⁴·k·lg(N/k) names across all
// stages, O(log k · log N) local steps, O(k·log(N/k)) registers.
type Basic struct {
	k, nNames int
	stages    []*Majority
	bases     []int64 // cumulative name offset of each stage
	maxName   int64
}

// NewBasic builds the object for exactly k contenders out of nNames possible
// original names. Stage s gets an independently seeded graph.
func NewBasic(k, nNames int, cfg Config) *Basic {
	cfg = cfg.normalize()
	b := &Basic{k: k, nNames: nNames}
	b.maxName = basicStages(k, nNames, cfg.Profile, func(s, l int, base int64) {
		stageCfg := cfg
		stageCfg.Seed = subSeed(cfg.Seed, uint64(s))
		b.stages = append(b.stages, NewMajority(l, nNames, stageCfg))
		b.bases = append(b.bases, base)
	})
	return b
}

// BasicBounds returns the MaxName and MaxSteps of every Basic(k, nNames)
// built under cfg, whatever its seed, without building its stages.
func BasicBounds(k, nNames int, cfg Config) (maxName, maxSteps int64) {
	cfg = cfg.normalize()
	maxName = basicStages(k, nNames, cfg.Profile, func(s, l int, base int64) {
		_, steps := MajorityBounds(l, nNames, cfg)
		maxSteps += steps
	})
	return maxName, maxSteps
}

// basicStages lays out the stages of a Basic for k contenders out of nNames
// names under prof: stage s has contender bound l = ⌊k/2^s⌋ and its name
// block starts at base. It calls stage (when non-nil) for each stage and
// returns the total width MaxName, computed from the expander widths alone,
// so a nil stage builds no graph and no register field.
func basicStages(k, nNames int, prof expander.Profile, stage func(s, l int, base int64)) int64 {
	if k < 1 || nNames < 1 {
		panic(fmt.Sprintf("core: invalid Basic parameters k=%d N=%d", k, nNames))
	}
	if k > nNames {
		panic(fmt.Sprintf("core: contention k=%d exceeds name range N=%d", k, nNames))
	}
	var base int64
	for s, l := 0, k; l >= 1; s, l = s+1, l/2 {
		if stage != nil {
			stage(s, l, base)
		}
		m, _ := expander.Dims(nNames, l, prof)
		base += int64(m)
	}
	return base
}

// K returns the contender bound the instance was built for.
func (b *Basic) K() int { return b.k }

// NNames returns the original-name range the instance was built for.
func (b *Basic) NNames() int { return b.nNames }

// Stages returns the number of Majority stages (⌈lg k⌉+1).
func (b *Basic) Stages() int { return len(b.stages) }

// MaxName implements Renamer: the union of all stage name blocks.
func (b *Basic) MaxName() int64 { return b.maxName }

// Registers implements Renamer.
func (b *Basic) Registers() int {
	r := 0
	for _, s := range b.stages {
		r += s.Registers()
	}
	return r
}

// MaxSteps is the wait-free step bound: the sum of stage bounds.
func (b *Basic) MaxSteps() int64 {
	var t int64
	for _, s := range b.stages {
		t += s.MaxSteps()
	}
	return t
}

// Rename implements Renamer. A process runs the stages in order until one
// assigns it a name; stage name blocks are disjoint, so exclusiveness
// follows from per-stage exclusiveness.
func (b *Basic) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for s, stage := range b.stages {
		if w, ok := stage.Rename(p, orig); ok {
			return b.bases[s] + w, true
		}
	}
	return 0, false
}
