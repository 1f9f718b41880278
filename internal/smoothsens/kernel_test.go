package smoothsens_test

import (
	"context"
	"errors"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/graph/graphtest"
	"dpkron/internal/pipeline"
	"dpkron/internal/smoothsens"
)

// refMaxCommon is the O(n·m) reference: for every u, mark N(u) and
// count the marks on N(v) for every v > u.
func refMaxCommon(g *graph.Graph) int {
	n := g.NumNodes()
	mark := make([]bool, n)
	best := 0
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			mark[w] = true
		}
		for v := u + 1; v < n; v++ {
			c := 0
			for _, w := range g.Neighbors(v) {
				if mark[w] {
					c++
				}
			}
			if c > best {
				best = c
			}
		}
		for _, w := range g.Neighbors(u) {
			mark[w] = false
		}
	}
	return best
}

// TestMaxCommonNeighborsEquivalence checks the degree-pruned scan
// against the reference on the kernel corpus at several worker counts,
// and that a cancelled run returns the run's error.
func TestMaxCommonNeighborsEquivalence(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range graphtest.Kernels() {
		want := refMaxCommon(c.G)
		for _, w := range []int{1, 2, 3, 8} {
			got, err := smoothsens.MaxCommonNeighborsCtx(pipeline.New(nil, w, nil), c.G)
			if err != nil || got != want {
				t.Errorf("%s workers=%d: MaxCommonNeighborsCtx = %d, %v; want %d", c.Name, w, got, err, want)
			}
			if _, err := smoothsens.MaxCommonNeighborsCtx(pipeline.New(cancelled, w, nil), c.G); !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: cancelled run returned %v", c.Name, w, err)
			}
		}
	}
}
