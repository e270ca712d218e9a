// Package expander builds the bipartite lossless expanders underlying the
// paper's renaming algorithms (Section 2, Lemmas 2 and 3).
//
// A graph G = (V, W, E) with |V| = N inputs (the possible original names),
// input-degree Δ, and |W| = M outputs (the competable new names) is an
// (L, Δ, ε)-lossless-expander if every X ⊆ V with |X| ≤ L has more than
// (1−ε)·|X|·Δ neighbors. Lemma 2 then yields a partial matching of X into
// its unique neighbors of size > (1−2ε)|X| — the engine of the Majority
// renaming step: more than half of up to L contenders own a name nobody else
// competes for.
//
// Lemma 3 proves existence by the probabilistic method with Δ = 4·lg(N/L)
// and M = 12e⁴·L·lg(N/L) at ε = 1/4. The paper gives no construction, so we
// substitute a seeded pseudo-random graph with exactly those parameters:
// each input's Δ neighbors are a pure function of (seed, input, slot), so
// the graph occupies no memory and all processes agree on every edge. The
// same randomized family is what the existence proof draws from; the
// CheckLossless verifier empirically certifies the expansion and matching
// properties for the seed in use. Algorithms' safety never depends on
// expansion — only progress does — so an unlucky seed can only slow renaming,
// never break exclusiveness.
package expander

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Epsilon is the expansion slack of Lemma 3; the matching of Lemma 2 then
// covers more than (1-2ε) = 1/2 of any small-enough input set.
const Epsilon = 0.25

// Profile selects the constant factors of the Lemma 3 parameters:
// Degree Δ = ceil(DegreeFactor·lg(N/L)) and width M =
// ceil(WidthFactor·L·lg(N/L)), with lg clamped to at least 1.
type Profile struct {
	Name         string
	DegreeFactor float64
	WidthFactor  float64
}

// Paper uses the constants of Lemma 3 verbatim: Δ = 4·lg(N/L),
// M = 12e⁴·L·lg(N/L). These make the union-bound existence proof go
// through but are enormously conservative in practice.
var Paper = Profile{Name: "paper", DegreeFactor: 4, WidthFactor: 12 * math.E * math.E * math.E * math.E}

// Practical keeps the paper's degree but shrinks the width to 16·L·lg(N/L),
// which the CheckLossless verifier confirms still delivers the Lemma 2
// matching with large margin for the sampled-graph family. Benchmarks use it
// so sweeps stay laptop-sized; EXPERIMENTS.md reports both profiles.
var Practical = Profile{Name: "practical", DegreeFactor: 4, WidthFactor: 16}

// lg2Ratio returns lg(n/l) clamped below at 1, the paper's log factor.
func lg2Ratio(n, l int) float64 {
	r := math.Log2(float64(n) / float64(l))
	if r < 1 {
		return 1
	}
	return r
}

// Graph is a bipartite graph with inputs [1..N], outputs [1..M], and
// input-degree Degree, with edges generated pseudo-randomly from Seed.
type Graph struct {
	N      int // |V|: the range of original names
	L      int // the contender bound the graph is provisioned for
	M      int // |W|: the range of competable new names
	Degree int // Δ: neighbors per input
	Seed   uint64
}

// New builds a graph for up to l contenders out of nInputs possible names
// under the given profile and seed.
func New(nInputs, l int, prof Profile, seed uint64) *Graph {
	m, deg := Dims(nInputs, l, prof)
	return &Graph{N: nInputs, L: l, M: m, Degree: deg, Seed: seed}
}

// Dims returns the output width M and input degree Δ that New gives a graph
// for up to l contenders out of nInputs names under prof — the Lemma 3
// parameters — for any seed, without building the graph.
func Dims(nInputs, l int, prof Profile) (m, deg int) {
	if nInputs < 1 || l < 1 {
		panic(fmt.Sprintf("expander: invalid parameters N=%d L=%d", nInputs, l))
	}
	lg := lg2Ratio(nInputs, l)
	deg = int(math.Ceil(prof.DegreeFactor * lg))
	if deg < 2 {
		deg = 2
	}
	m = int(math.Ceil(prof.WidthFactor * float64(l) * lg))
	if m < deg {
		m = deg
	}
	return m, deg
}

// Neighbor returns the (1-based) output index of input v's i-th neighbor,
// 0 <= i < Degree. Inputs are 1-based names in [1..N].
func (g *Graph) Neighbor(v int64, i int) int {
	if v < 1 || v > int64(g.N) {
		panic(fmt.Sprintf("expander: input %d outside [1..%d]", v, g.N))
	}
	if i < 0 || i >= g.Degree {
		panic(fmt.Sprintf("expander: neighbor slot %d outside [0..%d)", i, g.Degree))
	}
	h := xrand.Mix(xrand.Mix(g.Seed, uint64(v)), uint64(i))
	return 1 + int(h%uint64(g.M))
}

// Neighbors appends input v's full neighbor list to buf and returns it.
func (g *Graph) Neighbors(v int64, buf []int) []int {
	for i := 0; i < g.Degree; i++ {
		buf = append(buf, g.Neighbor(v, i))
	}
	return buf
}

// NeighborSet returns the distinct neighbors of the input set X and, for
// each output, how many members of X are adjacent to it.
func (g *Graph) NeighborSet(X []int64) map[int]int {
	adj := make(map[int]int, len(X)*g.Degree)
	for _, v := range X {
		seen := make(map[int]struct{}, g.Degree)
		for i := 0; i < g.Degree; i++ {
			w := g.Neighbor(v, i)
			// A repeated sample within one input contributes a single edge.
			if _, dup := seen[w]; dup {
				continue
			}
			seen[w] = struct{}{}
			adj[w]++
		}
	}
	return adj
}

// MatchedInputs returns how many inputs of X have at least one unique
// neighbor (an output adjacent to exactly one member of X). Each such input
// can be matched to a distinct unique neighbor, so this is the matching size
// Lemma 2 lower-bounds by (1−2ε)|X|.
func (g *Graph) MatchedInputs(X []int64) int {
	adj := g.NeighborSet(X)
	matched := 0
	for _, v := range X {
		for i := 0; i < g.Degree; i++ {
			if adj[g.Neighbor(v, i)] == 1 {
				matched++
				break
			}
		}
	}
	return matched
}

// Report summarizes an empirical expansion check.
type Report struct {
	Trials int
	// MinExpansion is the minimum over trials of |N(X)| / (|X|·Δ); Lemma 3
	// requires it to exceed 1−ε.
	MinExpansion float64
	// MinMatchedFrac is the minimum over trials of matched/|X|; Lemma 2
	// requires it to exceed 1−2ε.
	MinMatchedFrac float64
	// Violations counts trials where the matched fraction fell to 1/2 or
	// below (the majority guarantee would fail for that contender set).
	Violations int
}

// CheckLossless samples trials random input sets of sizes 1..L and measures
// the expansion and unique-neighbor matching. It is the empirical stand-in
// for the existence argument of Lemma 3.
func (g *Graph) CheckLossless(trials int, rng *xrand.Rand) Report {
	rep := Report{Trials: trials, MinExpansion: math.Inf(1), MinMatchedFrac: math.Inf(1)}
	for t := 0; t < trials; t++ {
		x := 1 + rng.Intn(g.L)
		X := rng.Sample(x, g.N)
		adj := g.NeighborSet(X)
		// Distinct-edge degree per input can be < Δ due to sampling with
		// replacement; expansion is measured against |X|·Δ as in the lemma.
		exp := float64(len(adj)) / (float64(len(X)) * float64(g.Degree))
		if exp < rep.MinExpansion {
			rep.MinExpansion = exp
		}
		frac := float64(g.MatchedInputs(X)) / float64(len(X))
		if frac < rep.MinMatchedFrac {
			rep.MinMatchedFrac = frac
		}
		if frac <= 0.5 {
			rep.Violations++
		}
	}
	return rep
}

// ParamsString formats the graph parameters for tables.
func (g *Graph) ParamsString() string {
	return fmt.Sprintf("N=%d L=%d M=%d Δ=%d", g.N, g.L, g.M, g.Degree)
}
