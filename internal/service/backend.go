package service

import (
	"fmt"

	"repro/internal/compete"
	"repro/internal/core"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// Backend is a one-shot renaming algorithm a generation activates: runnable
// both as procedure code (goroutine engine) and as a frame automaton
// (vectorized engine), with a known name bound. Recycle rewinds its register
// field in place at generation quiescence instead of reallocating it. A lane
// re-arms its last frame for each acquire (FrameRename's dst), so a lane's
// sessions allocate no frame once each backend type has built one.
type Backend interface {
	Rename(p *shmem.Proc, orig int64) (int64, bool)
	MaxName() int64
	Registers() int
	Recycle()
	vexec.FrameRenamer
}

// backends builds each algo's backend for one generation, by Config.Algo.
var backends = map[string]func(c Config) Backend{
	"firstfit": func(c Config) Backend {
		// One pair per contender suffices for distinct names; a small slack
		// absorbs adversarial burn (both contenders losing a pair). Proof
		// fixtures shrink the field (FFPairs) to keep schedule trees small.
		pairs := c.FFPairs
		if pairs <= 0 {
			pairs = 2*c.Cap + 2
		}
		return compete.NewFirstFit(pairs)
	},
	"majority": func(c Config) Backend {
		// Majority(ℓ,N) with N = cap original names: a generation's join
		// slots map 1:1 onto original names.
		return core.NewMajority(c.Cap, c.Cap, core.Config{Seed: xrand.Mix(c.Seed, 0x6d616a6f)})
	},
}

// newBackend builds the configured backend for one generation.
func (c Config) newBackend() Backend {
	mk, ok := backends[c.Algo]
	if !ok {
		panic(fmt.Sprintf("service: unknown backend algo %q", c.Algo))
	}
	return mk(c)
}
