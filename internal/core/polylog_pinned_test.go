package core_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/expander"
)

// refPolyLog is PolyLog(k, nNames) as it was built before epochs were sized
// from expander widths: every epoch, the one the 10% rule rejects included,
// is a full trial Basic. It returns the kept epochs and the final range, and
// checks at each epoch that the width estimate and the trial's MaxName both
// equal the summed widths of the graphs the trial was built on.
func refPolyLog(t *testing.T, k, nNames int, cfg core.Config) ([]*core.Basic, int64) {
	t.Helper()
	var epochs []*core.Basic
	cur := nNames
	for j := 0; j < 64; j++ {
		epochCfg := cfg
		epochCfg.Seed = core.SubSeed(cfg.Seed, 0x100+uint64(j))
		b := core.NewBasic(k, cur, epochCfg)
		built := core.BuiltWidth(b)
		if w, _ := core.BasicBounds(k, cur, cfg); w != built || b.MaxName() != built {
			t.Fatalf("k=%d N=%d %s: width estimate %d, NewBasic MaxName %d, built stages' width %d",
				k, cur, cfg.Profile.Name, w, b.MaxName(), built)
		}
		if 10*b.MaxName() >= int64(9*cur) {
			break
		}
		epochs = append(epochs, b)
		cur = int(b.MaxName())
	}
	return epochs, int64(cur)
}

// TestPolyLogConstructionPinned holds NewPolyLog, which builds only the
// epochs it keeps, to the trial-epoch construction: the same epoch count,
// name range, register count and step bound, over every (k, N) a PolyLog
// takes inside the conformance cases at n = 2, 5 and 16, plus large and
// degenerate ranges, under both expander profiles and several seeds.
func TestPolyLogConstructionPinned(t *testing.T) {
	type kn struct{ k, n int }
	grid := []kn{{1, 1}, {4, 32}, {8, 1 << 16}, {4, 1 << 22}, {16, 1 << 24}}
	for _, c := range conformance.Cases() {
		for _, n := range []int{2, 5, 16} {
			for _, pl := range core.PolyLogsOf(c.New(n, 1)) {
				grid = append(grid, kn{pl.K(), pl.NNames()})
			}
		}
	}
	for _, g := range grid {
		for _, prof := range []expander.Profile{expander.Practical, expander.Paper} {
			for _, seed := range []uint64{1, 0x9e3779b9} {
				cfg := core.Config{Profile: prof, Seed: seed}
				pl := core.NewPolyLog(g.k, g.n, cfg)
				epochs, maxName := refPolyLog(t, g.k, g.n, cfg)
				regs, steps := 0, int64(0)
				for _, b := range epochs {
					regs += b.Registers()
					steps += b.MaxSteps()
				}
				if pl.Epochs() != len(epochs) || pl.MaxName() != maxName || pl.Registers() != regs || pl.MaxSteps() != steps {
					t.Fatalf("PolyLog(k=%d, N=%d) %s seed=%#x: epochs/M/registers/steps = %d/%d/%d/%d, reference %d/%d/%d/%d",
						g.k, g.n, prof.Name, seed, pl.Epochs(), pl.MaxName(), pl.Registers(), pl.MaxSteps(),
						len(epochs), maxName, regs, steps)
				}
			}
		}
	}
}
