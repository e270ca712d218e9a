package core

import (
	"fmt"

	"repro/internal/expander"
	"repro/internal/shmem"
)

// PolyLog is the algorithm PolyLog-Rename(k,N) of Theorem 1: a
// (k,N)-renaming object that runs a sequence of Basic-Rename epochs, feeding
// the names acquired in epoch j as the original names of epoch j+1. Each
// epoch shrinks the name range from N_j to N_{j+1} = M(Basic(k,N_j)); after
// O(log log N) epochs the range stops shrinking and the construction halts
// with M = O(k) (paper profile: 768e⁴·k).
//
// Bounds of Theorem 1 (paper profile): M = 768e⁴·k names,
// O(log k·(log N + log k·log log N)) local steps, O(k·log(N/k)) registers.
//
// When even the first epoch cannot shrink the range (N already O(k)), the
// object degenerates to the identity renaming on [1..N], which is a valid
// (k,N)-renaming with M = N.
type PolyLog struct {
	k, nNames int
	epochs    []*Basic
	maxName   int64
}

// maxEpochs bounds the construction loop; Theorem 1 shows O(log log N)
// epochs suffice, so this is never reached for realizable N.
const maxEpochs = 64

// NewPolyLog builds the object for exactly k contenders out of nNames
// possible original names.
func NewPolyLog(k, nNames int, cfg Config) *PolyLog {
	cfg = cfg.normalize()
	pl := &PolyLog{k: k, nNames: nNames}
	pl.maxName = polyLogEpochs(k, nNames, cfg.Profile, func(j, cur int) {
		epochCfg := cfg
		epochCfg.Seed = subSeed(cfg.Seed, 0x100+uint64(j))
		pl.epochs = append(pl.epochs, NewBasic(k, cur, epochCfg))
	})
	return pl
}

// PolyLogBounds returns the MaxName and MaxSteps of every PolyLog(k, nNames)
// built under cfg, whatever its seed, without building its epochs.
func PolyLogBounds(k, nNames int, cfg Config) (maxName, maxSteps int64) {
	cfg = cfg.normalize()
	maxName = polyLogEpochs(k, nNames, cfg.Profile, func(j, cur int) {
		_, steps := BasicBounds(k, cur, cfg)
		maxSteps += steps
	})
	return maxName, maxSteps
}

// polyLogEpochs lays out the epochs of a PolyLog for k contenders out of
// nNames names under prof: epoch j is a Basic(k, cur) renaming [1..cur] into
// the next, smaller range. It calls epoch for each epoch and returns MaxName,
// the range after the last one.
func polyLogEpochs(k, nNames int, prof expander.Profile, epoch func(j, cur int)) int64 {
	if k < 1 || nNames < 1 {
		panic(fmt.Sprintf("core: invalid PolyLog parameters k=%d N=%d", k, nNames))
	}
	if k > nNames {
		panic(fmt.Sprintf("core: contention k=%d exceeds name range N=%d", k, nNames))
	}
	cur := nNames
	for j := 0; j < maxEpochs; j++ {
		// Stop when an epoch would shrink the range by less than 10%: the
		// construction has reached its fixpoint M = O(k). With the paper
		// constants every productive epoch shrinks by at least the 27/32
		// ratio of Theorem 1's proof, so this rule never fires early there;
		// it keeps the epoch count O(log log N) for small-constant profiles
		// that creep near the fixpoint. The epoch's width is a function of
		// the expander parameters alone, so an epoch is built only if kept.
		width := basicStages(k, cur, prof, nil)
		if 10*width >= int64(9*cur) {
			break
		}
		epoch(j, cur)
		cur = int(width)
	}
	return int64(cur)
}

// K returns the contender bound the instance was built for.
func (pl *PolyLog) K() int { return pl.k }

// NNames returns the original-name range the instance was built for.
func (pl *PolyLog) NNames() int { return pl.nNames }

// Epochs returns the number of Basic-Rename epochs (O(log log N)).
func (pl *PolyLog) Epochs() int { return len(pl.epochs) }

// MaxName implements Renamer.
func (pl *PolyLog) MaxName() int64 { return pl.maxName }

// Registers implements Renamer.
func (pl *PolyLog) Registers() int {
	r := 0
	for _, e := range pl.epochs {
		r += e.Registers()
	}
	return r
}

// MaxSteps is the wait-free step bound: the sum of epoch bounds.
func (pl *PolyLog) MaxSteps() int64 {
	var t int64
	for _, e := range pl.epochs {
		t += e.MaxSteps()
	}
	return t
}

// Rename implements Renamer. The process's name flows through the epochs;
// a failed epoch aborts the pipeline with ok=false.
func (pl *PolyLog) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	cur := orig
	for _, e := range pl.epochs {
		next, ok := e.Rename(p, cur)
		if !ok {
			return 0, false
		}
		cur = next
	}
	if cur < 1 || cur > pl.maxName {
		panic(fmt.Sprintf("core: PolyLog produced name %d outside [1..%d]", cur, pl.maxName))
	}
	return cur, true
}
