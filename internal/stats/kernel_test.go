package stats_test

import (
	"context"
	"errors"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/graph/graphtest"
	"dpkron/internal/pipeline"
	"dpkron/internal/stats"
)

// refTriangles is the reference count: every triangle u < v < w once,
// from its edge {u, v} and an edge test for {v, w}.
func refTriangles(g *graph.Graph) int64 {
	var t int64
	g.ForEachEdge(func(u, v int) {
		for _, w := range g.Neighbors(u) {
			if int(w) > v && g.HasEdge(v, int(w)) {
				t++
			}
		}
	})
	return t
}

// TestTrianglesEquivalence checks the degree-oriented count against
// the reference on the kernel corpus at several worker counts, and that
// a cancelled run returns the run's error.
func TestTrianglesEquivalence(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range graphtest.Kernels() {
		want := refTriangles(c.G)
		for _, w := range []int{1, 2, 3, 8} {
			got, err := stats.TrianglesCtx(pipeline.New(nil, w, nil), c.G)
			if err != nil || got != want {
				t.Errorf("%s workers=%d: TrianglesCtx = %d, %v; want %d", c.Name, w, got, err, want)
			}
			if _, err := stats.TrianglesCtx(pipeline.New(cancelled, w, nil), c.G); !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: cancelled run returned %v", c.Name, w, err)
			}
		}
	}
}
