package core

import (
	"fmt"

	"repro/internal/afrename"
	"repro/internal/marename"
	"repro/internal/shmem"
)

// Efficient is the algorithm Efficient-Rename(k) of Theorem 2: a k-renaming
// object working for any range of original names, with the paper's headline
// combination of M = 2k-1 and O(k) local steps, using O(k²) registers. It
// chains three stages on disjoint register sets:
//
//  1. MA(k) — the Moir-Anderson grid compresses arbitrary identities into
//     [k(k+1)/2] in O(k) steps;
//  2. PolyLog-Rename(k, k(k+1)/2) — the expander pipeline compresses to
//     M' = O(k) in O(log²k·log log k) steps;
//  3. AF(k, M') — the 2k-1 stage (see package afrename for the documented
//     substitution) finishes in the optimal range.
//
// A process failing a stage (possible only beyond the contention bound, or
// with the residual sampled-expander probability) fails the whole rename:
// the adaptive construction of Theorem 4 runs each instance as one doubling
// level, and a failed level passes its contender on to the next.
type Efficient struct {
	k    int
	grid *marename.Grid
	poly *PolyLog
	af   *afrename.Renamer
}

// NewEfficient builds the object for up to k contenders.
func NewEfficient(k int, cfg Config) *Efficient {
	if k < 1 {
		panic(fmt.Sprintf("core: invalid Efficient parameter k=%d", k))
	}
	cfg = cfg.normalize()
	grid := marename.NewGrid(k)
	polyCfg := cfg
	polyCfg.Seed = subSeed(cfg.Seed, 0x200)
	poly := NewPolyLog(k, int(grid.MaxName()), polyCfg)
	af := afrename.New(int(poly.MaxName()))
	af.MaxName = int64(2*k - 1)
	return &Efficient{k: k, grid: grid, poly: poly, af: af}
}

// K returns the contender bound the instance was built for.
func (e *Efficient) K() int { return e.k }

// MaxName implements Renamer: the Theorem 2 bound M = 2k-1.
func (e *Efficient) MaxName() int64 { return int64(2*e.k - 1) }

// Registers implements Renamer.
func (e *Efficient) Registers() int {
	return e.grid.Registers() + e.poly.Registers() + e.af.Registers()
}

// Rename implements Renamer. orig may be any non-null identity (the
// algorithm is oblivious to N); identities must be distinct across
// contenders.
func (e *Efficient) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	if id1, ok := e.grid.Rename(p, orig); ok {
		if id2, ok := e.poly.Rename(p, id1); ok {
			if name, ok := e.af.Rename(p, int(id2-1), id2); ok {
				return name, true
			}
		}
	}
	return 0, false
}
