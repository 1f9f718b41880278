package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := Empty(5)
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatalf("Empty(5): nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroValue(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero-value Graph is not empty")
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(6)
	if g.NumEdges() != 15 {
		t.Fatalf("K6 edges = %d, want 15", g.NumEdges())
	}
	for u := 0; u < 6; u++ {
		if g.Degree(u) != 5 {
			t.Fatalf("K6 degree(%d) = %d", u, g.Degree(u))
		}
		for v := 0; v < 6; v++ {
			want := u != v
			if g.HasEdge(u, v) != want {
				t.Fatalf("K6 HasEdge(%d,%d) = %v", u, v, !want)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopsAndDuplicatesDropped(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {3, 2}})
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (loop and dups dropped)", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop present")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(6, [][2]int{{3, 5}, {3, 0}, {3, 4}, {3, 1}})
	nb := g.Neighbors(3)
	want := []int32{0, 1, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("neighbours = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbours = %v, want %v", nb, want)
		}
	}
}

func TestDegreeSumTwiceEdges(t *testing.T) {
	g := randomGraph(50, 0.2, 1)
	sum := 0
	for _, d := range g.Degrees() {
		sum += d
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", sum, 2*g.NumEdges())
	}
}

func TestForEachEdgeOrdering(t *testing.T) {
	g := randomGraph(30, 0.3, 2)
	var prev [2]int = [2]int{-1, -1}
	count := 0
	g.ForEachEdge(func(u, v int) {
		if u >= v {
			t.Fatalf("edge (%d,%d) not ordered", u, v)
		}
		if u < prev[0] || (u == prev[0] && v <= prev[1]) {
			t.Fatalf("edges not lexicographic: %v then (%d,%d)", prev, u, v)
		}
		prev = [2]int{u, v}
		count++
	})
	if count != g.NumEdges() {
		t.Fatalf("ForEachEdge visited %d, want %d", count, g.NumEdges())
	}
}

func TestWithEdgeToggled(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}})
	added := g.WithEdgeToggled(2, 3)
	if !added.HasEdge(2, 3) || added.NumEdges() != 3 {
		t.Fatal("toggle-add failed")
	}
	removed := g.WithEdgeToggled(0, 1)
	if removed.HasEdge(0, 1) || removed.NumEdges() != 1 {
		t.Fatal("toggle-remove failed")
	}
	// Toggling twice restores the original.
	back := added.WithEdgeToggled(2, 3)
	if !back.Equal(g) {
		t.Fatal("double toggle did not restore graph")
	}
}

func TestWithEdgeToggledPanics(t *testing.T) {
	g := Empty(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on loop toggle")
		}
	}()
	g.WithEdgeToggled(1, 1)
}

func TestEqual(t *testing.T) {
	a := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	b := FromEdges(4, [][2]int{{2, 3}, {0, 1}})
	c := FromEdges(4, [][2]int{{0, 1}, {1, 3}})
	if !a.Equal(b) {
		t.Fatal("equal graphs reported unequal")
	}
	if a.Equal(c) {
		t.Fatal("unequal graphs reported equal")
	}
}

func TestStarPathCycle(t *testing.T) {
	if g := Star(5); g.NumEdges() != 4 || g.Degree(0) != 4 {
		t.Fatal("Star(5) malformed")
	}
	if g := Path(5); g.NumEdges() != 4 || g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatal("Path(5) malformed")
	}
	if g := Cycle(5); g.NumEdges() != 5 || g.Degree(0) != 2 {
		t.Fatal("Cycle(5) malformed")
	}
}

func TestDegreeOrder(t *testing.T) {
	// Path 0-1-2-3 plus the pendant edge 1-4: degrees 1,3,2,1,1.
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}})
	order, rank := g.DegreeOrder()
	want := []int32{1, 2, 0, 3, 4} // degree descending, ties by id
	for i, v := range want {
		if order[i] != v || rank[v] != int32(i) {
			t.Fatalf("DegreeOrder = %v, %v; want order %v", order, rank, want)
		}
	}
	if order, rank := Empty(0).DegreeOrder(); len(order) != 0 || len(rank) != 0 {
		t.Fatal("empty graph has a non-empty degree order")
	}
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1 := b.Build()
	b.AddEdge(1, 2)
	g2 := b.Build()
	if g1.NumEdges() != 1 {
		t.Fatal("first Build mutated by later AddEdge")
	}
	if g2.NumEdges() != 2 {
		t.Fatal("builder did not retain edges across Build")
	}
}

// randomGraph builds a G(n, p) Erdos-Renyi graph with a fixed seed.
func randomGraph(n int, p float64, seed uint64) *Graph {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestValidateRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomGraph(40, 0.15, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestQuickCSRInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 24
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int(raw[i])%n, int(raw[i+1])%n)
		}
		g := b.Build()
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickHasEdgeMatchesEdgeSet(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 16
		set := map[[2]int]bool{}
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int(raw[i])%n, int(raw[i+1])%n
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			set[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
		g := b.Build()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				a, c := u, v
				if a > c {
					a, c = c, a
				}
				if g.HasEdge(u, v) != (u != v && set[[2]int{a, c}]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
