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
// (vectorized engine), with a known name bound.
type Backend interface {
	Rename(p *shmem.Proc, orig int64) (int64, bool)
	MaxName() int64
	Registers() int
	vexec.FrameRenamer
}

// NewLaneArmer returns a re-armer for the named algo bound to one retained
// frame: each call re-initializes the same underlying frame object for a new
// (backend, original name) and returns it. One armer per engine lane gives
// the vectorized driver its zero steady-state allocations — a lane's
// sessions land on different generations (different backend instances) over
// time, so the backend is a per-call argument, not captured. The frames an
// armer hands out perform exactly the accesses FrameRename's would.
func NewLaneArmer(algo string) func(b Backend, orig int64) vexec.Frame {
	switch algo {
	case "firstfit":
		f := &compete.FirstFitFrame{}
		return func(b Backend, orig int64) vexec.Frame {
			f.Init(b.(firstfitBackend).FirstFit, orig)
			return f
		}
	case "majority":
		f := &core.MajorityFrame{}
		return func(b Backend, orig int64) vexec.Frame {
			f.Init(b.(majorityBackend).Majority, orig)
			return f
		}
	default:
		panic(fmt.Sprintf("service: unknown backend algo %q", algo))
	}
}

// Recyclable marks backends whose register field can be rewound in place at
// generation quiescence instead of reallocated.
type Recyclable interface{ Recycle() }

// NewBackend constructs the named backend sized for cap contenders per
// generation with default sizing. Known algos: "firstfit", "majority".
func NewBackend(algo string, cap int, seed uint64) Backend {
	return Config{Algo: algo, Cap: cap, Seed: seed}.newBackend()
}

// newBackend builds the configured backend for one generation.
func (c Config) newBackend() Backend {
	switch c.Algo {
	case "firstfit":
		// One pair per contender suffices for distinct names; a small slack
		// absorbs adversarial burn (both contenders losing a pair). Proof
		// fixtures shrink the field (FFPairs) to keep schedule trees small.
		pairs := c.FFPairs
		if pairs <= 0 {
			pairs = 2*c.Cap + 2
		}
		return firstfitBackend{compete.NewFirstFit(pairs)}
	case "majority":
		// Majority(ℓ,N) with N = cap original names: a generation's join
		// slots map 1:1 onto original names.
		return majorityBackend{core.NewMajority(c.Cap, c.Cap, core.Config{Seed: xrand.Mix(c.Seed, 0x6d616a6f)})}
	default:
		panic(fmt.Sprintf("service: unknown backend algo %q", c.Algo))
	}
}

type firstfitBackend struct{ *compete.FirstFit }

type majorityBackend struct{ *core.Majority }

var (
	_ Recyclable = firstfitBackend{}
	_ Recyclable = majorityBackend{}
)
