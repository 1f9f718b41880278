package stats

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// statGraph builds a moderately dense deterministic test graph with
// hubs, so triangle and wedge work is unevenly distributed across the
// vertex range (the case parallel sharding must get right).
func statGraph(n int, seed uint64) *graph.Graph {
	rng := randx.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		// Preferential-style wiring toward low ids.
		for t := 0; t < 6; t++ {
			v := rng.IntN(u + 1)
			if v != u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestFeatureCountsWorkerInvariant(t *testing.T) {
	g := statGraph(2000, 3)
	base, _ := FeaturesOfCtx(pipeline.New(nil, 1, nil), g)
	if base.Delta == 0 || base.H == 0 {
		t.Fatal("degenerate test graph")
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := FeaturesOfCtx(pipeline.New(nil, workers, nil), g)
		if err != nil || got != base {
			t.Fatalf("workers=%d: features %+v != %+v", workers, got, base)
		}
	}
	if featuresOf(g) != base {
		t.Fatal("FeaturesOfCtx at a nil run differs from a one-worker run")
	}
}

func TestTrianglesPerNodeWorkerInvariant(t *testing.T) {
	g := statGraph(1200, 5)
	base, _ := TrianglesPerNodeCtx(pipeline.New(nil, 1, nil), g)
	for _, workers := range []int{4, 8} {
		got, _ := TrianglesPerNodeCtx(pipeline.New(nil, workers, nil), g)
		for v := range got {
			if got[v] != base[v] {
				t.Fatalf("workers=%d: node %d count %d != %d", workers, v, got[v], base[v])
			}
		}
	}
	// Cross-check: the per-node counts triple-count each triangle.
	var sum int64
	for _, c := range base {
		sum += c
	}
	if sum != 3*triangles(g) {
		t.Fatalf("per-node sum %d != 3×%d", sum, triangles(g))
	}
}

func TestHopPlotWorkerInvariant(t *testing.T) {
	g := statGraph(600, 7)
	base, _ := HopPlotCtx(pipeline.New(nil, 1, nil), g)
	if len(base) < 2 {
		t.Fatal("degenerate hop plot")
	}
	for _, workers := range []int{2, 4, 8} {
		got, _ := HopPlotCtx(pipeline.New(nil, workers, nil), g)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: hop plot length %d != %d", workers, len(got), len(base))
		}
		for h := range got {
			if got[h] != base[h] {
				t.Fatalf("workers=%d: hop %d count %d != %d", workers, h, got[h], base[h])
			}
		}
	}
}

func TestHopPlotWorkersEmptyGraph(t *testing.T) {
	if got, _ := HopPlotCtx(pipeline.New(nil, 8, nil), graph.Empty(0)); len(got) != 0 {
		t.Fatalf("empty graph hop plot = %v", got)
	}
	got, _ := HopPlotCtx(pipeline.New(nil, 8, nil), graph.Empty(4))
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("isolated nodes hop plot = %v, want [4]", got)
	}
}

// TestClusteringByDegreeCtxUnderRun checks that the clustering-by-degree
// series runs inside its Run: identical at one and three workers, and a
// cancelled run returns context.Canceled instead of counting on.
func TestClusteringByDegreeCtxUnderRun(t *testing.T) {
	g := statGraph(1500, 9)
	one, err := ClusteringByDegreeCtx(pipeline.New(nil, 1, nil), g)
	if err != nil || len(one) < 2 {
		t.Fatalf("workers=1: %d points, err %v", len(one), err)
	}
	three, err := ClusteringByDegreeCtx(pipeline.New(nil, 3, nil), g)
	if err != nil || !reflect.DeepEqual(one, three) {
		t.Fatalf("workers=3 differs from workers=1 (err %v)", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 3} {
		if _, err := ClusteringByDegreeCtx(pipeline.New(ctx, w, nil), g); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled run err = %v, want context.Canceled", w, err)
		}
	}
}
