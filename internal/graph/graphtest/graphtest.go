// Package graphtest holds the graph corpus the exact graph kernels are
// checked against brute-force references on. Each family exercises a
// different branch of the degree-ordered kernels in packages stats and
// smoothsens: graphs where degree pruning never fires, graphs where it
// must not fire too early, ties in the degree order, degenerate sizes,
// and random graphs with and without a heavy degree tail.
package graphtest

import (
	"fmt"

	"dpkron/internal/graph"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// Case is one named graph of the corpus.
type Case struct {
	Name string
	G    *graph.Graph
}

// Kernels returns the corpus. Every graph has at most a few hundred
// nodes, so O(n·m) references stay fast under the race detector.
func Kernels() []Case {
	cases := []Case{
		{"empty-0", graph.Empty(0)},
		{"empty-1", graph.Empty(1)},
		{"empty-2", graph.Empty(2)},
		{"edge-2", graph.Complete(2)},
		{"isolated-9", graph.Empty(9)},
		{"complete-12", graph.Complete(12)},
		{"star-50", graph.Star(50)},
		{"path-30", graph.Path(30)},
		{"cycle-31", graph.Cycle(31)},
		{"circulant-60-8", circulant(60, 4)},
		{"hubs-low-max", hubsAndLowMax(3, 80, 12)},
		{"grid-10x10", grid(10, 10)},
		{"cliques-10xK5", cliques(10, 5)},
		{"bipartite-6x9", completeBipartite(6, 9)},
	}
	for _, p := range []float64{0.05, 0.3} {
		for seed := uint64(1); seed <= 2; seed++ {
			cases = append(cases, Case{fmt.Sprintf("gnp-120-%v-s%d", p, seed), graph.Gnp(120, p, randx.New(seed))})
		}
	}
	for _, k := range []int{8, 9} {
		m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: k}
		for seed := uint64(1); seed <= 2; seed++ {
			g, _ := m.SampleBallDropCtx(nil, randx.New(seed)) // a nil run is never cancelled
			cases = append(cases, Case{fmt.Sprintf("balldrop-k%d-s%d", k, seed), g})
		}
	}
	return cases
}

// circulant returns the 2k-regular graph on n nodes joining each node
// to the k nearest on either side of a cycle. Every degree ties, and
// for n > 4k+1 no pair shares 2k neighbours, so a scan pruned by degree
// can never stop early.
func circulant(n, k int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			b.AddEdge(v, (v+j)%n)
		}
	}
	return b.Build()
}

// hubsAndLowMax returns hubs stars of leaves leaves each, with no leaf
// shared, beside a complete bipartite K_{2,c}. The maximising pair is
// the two degree-c nodes of the K_{2,c} (c common neighbours), far below
// the hubs' degree, so a degree-pruned scan must not stop at the hubs.
func hubsAndLowMax(hubs, leaves, c int) *graph.Graph {
	n := hubs*(leaves+1) + 2 + c
	b := graph.NewBuilder(n)
	for h := 0; h < hubs; h++ {
		centre := h * (leaves + 1)
		for l := 1; l <= leaves; l++ {
			b.AddEdge(centre, centre+l)
		}
	}
	a := hubs * (leaves + 1)
	for j := 0; j < c; j++ {
		b.AddEdge(a, a+2+j)
		b.AddEdge(a+1, a+2+j)
	}
	return b.Build()
}

// grid returns the r×c grid graph: triangle-free, with degrees 2–4.
func grid(r, c int) *graph.Graph {
	b := graph.NewBuilder(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				b.AddEdge(v, v+1)
			}
			if i+1 < r {
				b.AddEdge(v, v+c)
			}
		}
	}
	return b.Build()
}

// cliques returns count disjoint copies of K_size: every degree ties.
func cliques(count, size int) *graph.Graph {
	b := graph.NewBuilder(count * size)
	for q := 0; q < count; q++ {
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				b.AddEdge(q*size+u, q*size+v)
			}
		}
	}
	return b.Build()
}

// completeBipartite returns K_{a,b} on nodes [0, a) and [a, a+b).
func completeBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bl.AddEdge(u, v)
		}
	}
	return bl.Build()
}
