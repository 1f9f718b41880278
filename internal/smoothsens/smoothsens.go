// Package smoothsens implements the Nissim–Raskhodnikova–Smith (STOC'07)
// smooth-sensitivity mechanism for the triangle count, used in steps 4–5
// of the paper's Algorithm 1 to release Δ̃ with (ε/2, δ)-differential
// privacy.
//
// For f(G) = number of triangles, the local sensitivity under edge
// toggles is LS(G) = max_{u≠v} |N(u) ∩ N(v)|: toggling edge {u, v}
// changes the count by exactly the number of common neighbours. The
// local sensitivity at edit distance s is A^(s)(G) = min(LS(G)+s, n−2),
// because one edge flip moves any common-neighbour count by at most one
// and a targeted flip achieves it, while n−2 is the ceiling. The
// β-smooth sensitivity is then SS_β(G) = max_{s≥0} e^{−βs}·A^(s)(G),
// which this package maximizes in closed form (and tests by exhaustive
// scan). Adding 2·SS_β/ε · Lap(1) noise with β = ε/(2·ln(2/δ)) gives
// (ε, δ)-DP (Theorem 4.8 of the paper).
package smoothsens

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// mcnShardNodes is the number of consecutive degree-order positions per
// shard of the max-common-neighbours scan. The work sits at the head of
// the order, so shards are kept small enough to spread the few heavy
// sources over the workers.
const mcnShardNodes = 16

// MaxCommonNeighborsCtx returns max over node pairs u ≠ v of
// |N(u) ∩ N(v)|, the local sensitivity LS_Δ(G) of the triangle count.
//
// The scan visits source nodes in degree-descending order and counts
// two-hop paths u–w–v into an O(n) scratch array. Because
// |N(u) ∩ N(v)| ≤ min(d(u), d(v)), it stops once d(u) ≤ best (the
// largest count found so far) and skips every v with d(v) ≤ best or
// already scanned as a source, so on graphs with a heavy degree tail
// only the few pairs of high-degree nodes are counted. The result is
// exact.
//
// The scan is sharded over runs of the degree order on the run's worker
// budget. The workers share one atomic best, which only sharpens the
// pruning: the maximum does not depend on the scan order, so the result
// is identical for every worker count. The run's context is checked
// between shards; a cancelled run returns run.Err().
func MaxCommonNeighborsCtx(run *pipeline.Run, g *graph.Graph) (int, error) {
	n := g.NumNodes()
	if n < 2 {
		return 0, run.Err()
	}
	order, rank := g.DegreeOrder()
	off, adj := g.CSR()
	deg := func(pos int) int32 {
		u := order[pos]
		return off[u+1] - off[u]
	}
	// above(b) is the number of nodes of degree > b: the positions that
	// can still pair with a source to beat b.
	above := func(b int32) int32 {
		return int32(sort.Search(n, func(i int) bool { return deg(i) <= b }))
	}
	blocks := parallel.Blocks(n, (n+mcnShardNodes-1)/mcnShardNodes)
	w := run.Workers()
	if w > len(blocks) {
		w = len(blocks)
	}
	type scratch struct {
		count   []int32 // two-hop counts, indexed by degree-order position
		touched []int32
	}
	parts := make([]scratch, w)
	var best atomic.Int32
	err := parallel.RunIndexedCtx(run.Context(), w, len(blocks), func(worker, sh int) {
		sc := &parts[worker]
		for p := blocks[sh].Lo; p < blocks[sh].Hi; p++ {
			b := best.Load()
			if deg(p) <= b {
				return // every later source has degree <= b as well
			}
			if sc.count == nil {
				sc.count = make([]int32, n)
			}
			// Candidates v sit at positions p < rank[v] < above(b): later
			// in the order (an earlier v scanned the pair itself) and of
			// degree > b. One unsigned compare tests the range.
			lo, span := int32(p)+1, uint32(above(b)-int32(p)-1)
			count, touched := sc.count, sc.touched[:0]
			u := order[p]
			for _, x := range adj[off[u]:off[u+1]] {
				for _, v := range adj[off[x]:off[x+1]] {
					r := rank[v]
					if uint32(r-lo) >= span {
						continue
					}
					if count[r] == 0 {
						touched = append(touched, r)
					}
					count[r]++
				}
			}
			var local int32
			for _, r := range touched {
				if count[r] > local {
					local = count[r]
				}
				count[r] = 0
			}
			sc.touched = touched
			for {
				cur := best.Load()
				if local <= cur || best.CompareAndSwap(cur, local) {
					break
				}
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return int(best.Load()), nil
}

// SensitivityAtDistance returns A^(s)(G) = min(C+s, n−2), the maximum
// local sensitivity over graphs within edit distance s of a graph on n
// nodes whose local sensitivity (MaxCommonNeighborsCtx) is C; 0 when
// n < 3.
func SensitivityAtDistance(C, n, s int) float64 {
	if n < 3 {
		return 0
	}
	return math.Min(float64(C+s), float64(n-2))
}

// SmoothCtx returns the β-smooth sensitivity of the triangle count at g:
// the MaxCommonNeighborsCtx scan under run, followed by SmoothFromLS.
// β must be positive.
func SmoothCtx(run *pipeline.Run, g *graph.Graph, beta float64) (float64, error) {
	if beta <= 0 || math.IsNaN(beta) {
		panic(fmt.Sprintf("smoothsens: beta must be positive, got %v", beta))
	}
	n := g.NumNodes()
	if n < 3 {
		return 0, run.Err()
	}
	ls, err := MaxCommonNeighborsCtx(run, g)
	if err != nil {
		return 0, err
	}
	return SmoothFromLS(ls, n, beta), nil
}

// SmoothFromLS returns SS_β of a graph on n nodes whose local
// sensitivity (MaxCommonNeighborsCtx) is C, in closed form: the maximum
// of e^{−βs}·min(C+s, n−2) over integer s ≥ 0, and 0 when n < 3.
// SmoothCtx is the scan followed by this; a caller that already holds
// C uses it to skip a second scan.
//
// The unconstrained maximizer of e^{−βs}(C+s) is s* = 1/β − C; the
// objective is unimodal in s, so checking s = 0, ⌊s*⌋, ⌈s*⌉ and the cap
// point suffices.
func SmoothFromLS(C, n int, beta float64) float64 {
	if n < 3 {
		return 0
	}
	capVal := float64(n - 2)
	obj := func(s float64) float64 {
		v := float64(C) + s
		if v > capVal {
			v = capVal
		}
		return math.Exp(-beta*s) * v
	}
	best := obj(0)
	sStar := 1/beta - float64(C)
	for _, s := range []float64{math.Floor(sStar), math.Ceil(sStar), capVal - float64(C)} {
		if s > 0 {
			if v := obj(s); v > best {
				best = v
			}
		}
	}
	return best
}

// BetaFor returns the largest admissible β for Theorem 4.8:
// β = ε / (2·ln(2/δ)). ε and δ must be positive with δ < 1.
func BetaFor(eps, delta float64) float64 {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("smoothsens: invalid (eps=%v, delta=%v)", eps, delta))
	}
	return eps / (2 * math.Log(2/delta))
}

// Result carries a private triangle count together with the calibration
// quantities, so experiments can report the magnitude of the added
// noise. Only Noisy is differentially private; Exact is the sensitive
// count, and SmoothSen/Scale depend on the sensitive graph and are not
// released by the mechanism (Beta is public, derived from ε and δ).
type Result struct {
	Noisy     float64 // Δ̃ = Δ + 2·SS_β/ε · Lap(1); safe to release
	Exact     int64   // the true count (sensitive; not for release)
	SmoothSen float64 // SS_β(G) (sensitive; not for release)
	Beta      float64 // β used (public)
	Scale     float64 // 2·SS_β/ε, the Laplace scale applied (sensitive)
}

// Query is the name under which the (ε, δ) Laplace release is charged
// to accountants; QueryPure names the pure-ε Cauchy release.
const (
	Query     = "triangles/smooth-laplace"
	QueryPure = "triangles/smooth-cauchy"
)

// PrivateTrianglesAccCtx releases an (ε, δ)-differentially private
// triangle count of g via the accountant's smooth-sensitivity Laplace
// mechanism. The sensitivity scan and the exact count run under run and
// check its context between shards, and a "triangle-release" stage
// event pair is emitted. The (ε, δ) charge is recorded on acc (nil
// records nothing) after the sensitivity scan but before any noise is
// drawn; a refused charge or a cancelled run returns the error with no
// noise consumed from rng. Otherwise exactly one Laplace draw is taken
// from rng, and the released count is identical for every worker count
// and pinned to the fixed-seed hashes of the fingerprint tests.
func PrivateTrianglesAccCtx(run *pipeline.Run, acc *accountant.Accountant, g *graph.Graph, eps, delta float64, rng *randx.Rand) (Result, error) {
	done := run.Stage("triangle-release")
	beta := BetaFor(eps, delta)
	ss, err := SmoothCtx(run, g, beta)
	if err != nil {
		return Result{}, err
	}
	exact, err := stats.TrianglesCtx(run, g)
	if err != nil {
		return Result{}, err
	}
	mech := accountant.SmoothLaplace{SmoothSens: ss, Beta: beta, Eps: eps, Delta: delta}
	if err := acc.Charge(Query, mech); err != nil {
		return Result{}, err
	}
	done()
	return Result{
		Noisy:     mech.Apply(float64(exact), rng),
		Exact:     exact,
		SmoothSen: ss,
		Beta:      beta,
		Scale:     mech.Scale(),
	}, nil
}

// BetaForPure returns the admissible β for the pure-ε Cauchy
// mechanism, ε/6: the standard Cauchy density ∝ 1/(1+z²) is
// (ε/6, ε/6)-admissible (Nissim et al.), so noise 6·SS_β/ε · Cauchy(1)
// at β = ε/6 gives (ε, 0)-DP. ε must be positive.
func BetaForPure(eps float64) float64 {
	if eps <= 0 || math.IsNaN(eps) {
		panic(fmt.Sprintf("smoothsens: invalid eps=%v", eps))
	}
	return eps / 6
}

// PrivateTrianglesPureCtx releases an (ε, 0)-differentially private
// triangle count via the smooth-sensitivity Cauchy mechanism — the
// pure-ε alternative to the paper's (ε, δ) Laplace release, with
// heavier-tailed noise as the price of dropping δ. The charge is
// recorded on acc (nil records nothing) before the single Cauchy draw.
func PrivateTrianglesPureCtx(run *pipeline.Run, acc *accountant.Accountant, g *graph.Graph, eps float64, rng *randx.Rand) (Result, error) {
	done := run.Stage("triangle-release")
	beta := BetaForPure(eps)
	ss, err := SmoothCtx(run, g, beta)
	if err != nil {
		return Result{}, err
	}
	exact, err := stats.TrianglesCtx(run, g)
	if err != nil {
		return Result{}, err
	}
	mech := accountant.SmoothCauchy{SmoothSens: ss, Beta: beta, Eps: eps}
	if err := acc.Charge(QueryPure, mech); err != nil {
		return Result{}, err
	}
	done()
	return Result{
		Noisy:     mech.Apply(float64(exact), rng),
		Exact:     exact,
		SmoothSen: ss,
		Beta:      beta,
		Scale:     mech.Scale(),
	}, nil
}
