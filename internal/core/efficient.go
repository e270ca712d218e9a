package core

import (
	"fmt"

	"repro/internal/afrename"
	"repro/internal/marename"
	"repro/internal/shmem"
)

// Efficient is the algorithm Efficient-Rename(k) of Theorem 2: a k-renaming
// object working for any range of original names, using O(k²) registers.
// Theorem 2 claims the headline combination of M = 2k-1 names and O(k)
// local steps. This code keeps M = 2k-1 but not the step bound: with the
// snapshot-based AF substitution (package afrename) it measures about k²
// steps per process (ROADMAP item 9 has the table). It chains three stages
// on disjoint register sets:
//
//  1. MA(k) — the Moir-Anderson grid compresses arbitrary identities into
//     [k(k+1)/2] in exactly 4k steps;
//  2. PolyLog-Rename(k, k(k+1)/2) — in the paper the expander pipeline
//     compresses to M' = O(k) in O(log²k·log log k) steps. Under the
//     practical profile its epoch construction is empty for every k from 4
//     to 256 (PolyLogBounds(k, k(k+1)/2) is (k(k+1)/2, 0)), so here the
//     stage is the identity and M' = k(k+1)/2;
//  3. AF(k, M') — the 2k-1 stage finishes in the optimal range. Its
//     snapshot has one segment per name of M', so an attempt reads at
//     least 4·M' registers: the source of the k² steps.
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
