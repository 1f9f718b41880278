package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// smallRegistry is a scaled-down two-dataset registry so the concurrent
// table harness is exercised without the full k=13–14 generation cost.
func smallRegistry() []Dataset {
	return []Dataset{
		{
			Name:   "tiny-a",
			Source: skg.Initiator{A: 0.99, B: 0.45, C: 0.25},
			K:      8, Seed: 21, TrueInit: true,
		},
		{
			Name:   "tiny-b",
			Source: skg.Initiator{A: 0.95, B: 0.55, C: 0.2},
			K:      8, Seed: 22, TrueInit: true,
		},
	}
}

func TestRunTable1DatasetsWorkerInvariant(t *testing.T) {
	opts := Table1Options{KronFitIters: 3}
	base, err := RunTable1DatasetsCtx(pipeline.New(nil, 1, nil), smallRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || base[0].Dataset.Name != "tiny-a" {
		t.Fatalf("rows out of order: %+v", base)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunTable1DatasetsCtx(pipeline.New(nil, workers, nil), smallRegistry(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i].KronFit != base[i].KronFit ||
				got[i].KronMom != base[i].KronMom ||
				got[i].Private != base[i].Private {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, got[i], base[i])
			}
		}
	}
}

func TestEpsilonSweepWorkerInvariant(t *testing.T) {
	d := smallDataset()
	g, _ := d.GenerateCtx(nil)
	base, err := EpsilonSweepCtx(pipeline.New(nil, 1, nil), g, d.K, []float64{0.1, 1}, 0.01, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EpsilonSweepCtx(pipeline.New(nil, 8, nil), g, d.K, []float64{0.1, 1}, 0.01, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], base[i])
		}
	}
}

// TestComputeStatsCtxUnderRun checks that every figure panel, the
// clustering-by-degree panel included, runs inside its Run: the panels
// are identical at one and three workers, and a cancelled run returns
// context.Canceled.
func TestComputeStatsCtxUnderRun(t *testing.T) {
	d := smallDataset()
	g, _ := d.GenerateCtx(nil)
	opts := FigureOptions{ScreeRank: 8}
	opts.fill()
	one, err := computeStatsCtx(pipeline.New(nil, 1, nil), g, opts, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Clustering.X) == 0 {
		t.Fatal("empty clustering panel")
	}
	three, err := computeStatsCtx(pipeline.New(nil, 3, nil), g, opts, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, three) {
		t.Fatal("panels at workers=3 differ from workers=1")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := computeStatsCtx(pipeline.New(ctx, 3, nil), g, opts, randx.New(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run err = %v, want context.Canceled", err)
	}
}
