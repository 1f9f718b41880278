package dpkron_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"dpkron/internal/anf"
	"dpkron/internal/core"
	"dpkron/internal/experiments"
	"dpkron/internal/graph"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/linalg"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

// The hashes below were captured from the PR 2 tree (commit ed4a889),
// before the context-aware pipeline refactor. They pin the released
// bits of every refactored path: samplers, Algorithm 1, both baseline
// estimators, ANF, smooth sensitivity, the spectral series, and the
// epsilon sweep. Each case runs its one ...Ctx entry point through the
// three routes of fpRuns (a background run, a live cancellable run and
// a nil run); every route must reproduce the pin.

func fpHashGraph(g *graph.Graph) uint64 {
	h := fnv.New64a()
	g.ForEachEdge(func(u, v int) {
		fmt.Fprintf(h, "%d,%d;", u, v)
	})
	return h.Sum64()
}

func fpHashFloats(xs ...float64) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%.17g;", x)
	}
	return h.Sum64()
}

// liveRun returns a Run whose context carries a cancellation signal
// that never fires, so the ctx-aware code paths (not the background
// fast paths) are exercised. Shared with the PipelineOverhead
// benchmarks, which must measure exactly the path these tests pin.
func liveRun(tb testing.TB, workers int) *pipeline.Run {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	return pipeline.New(ctx, workers, nil)
}

func fpGraphK10(t *testing.T) *graph.Graph {
	t.Helper()
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.SampleExactCtx(pipeline.New(nil, 4, nil), randx.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fpRoute is one way of calling a ...Ctx entry point.
type fpRoute struct {
	name string
	run  *pipeline.Run
}

// fpRuns returns the routes every pin is checked through: a background
// run (no cancellation signal, so the pool skips its checks), a live
// run (a cancellation signal that never fires, so the checks run) and
// a nil run, which the pipeline documents as a background run on all
// cores.
func fpRuns(t *testing.T, workers int) []fpRoute {
	return []fpRoute{
		{fmt.Sprintf("background/w%d", workers), pipeline.New(nil, workers, nil)},
		{fmt.Sprintf("live/w%d", workers), liveRun(t, workers)},
		{"nil", nil},
	}
}

func TestFingerprintSamplers(t *testing.T) {
	m, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	mb, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 12)
	const (
		wantExact = uint64(0x6c10859be86b36ad)
		wantDrop  = uint64(0x782fb2c09f8882ef)
	)
	for _, r := range fpRuns(t, 4) {
		g, err := m.SampleExactCtx(r.run, randx.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashGraph(g); got != wantExact {
			t.Errorf("SampleExactCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantExact)
		}
		gd, err := mb.SampleBallDropNCtx(r.run, randx.New(7), 3000)
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashGraph(gd); got != wantDrop {
			t.Errorf("SampleBallDropNCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantDrop)
		}
	}
}

func TestFingerprintEstimateAndFeatures(t *testing.T) {
	g := fpGraphK10(t)
	const (
		wantInit  = uint64(0x1c23d17293445957)
		wantFeats = uint64(0x297d918e6156a3fb)
		wantExact = uint64(0x42b1d41f1ac6a497)
	)
	for _, r := range fpRuns(t, 4) {
		res, err := core.EstimateCtx(r.run, g, core.Options{Eps: 0.5, Delta: 0.01, Rng: randx.New(9)})
		if err != nil {
			t.Fatalf("EstimateCtx[%s]: %v", r.name, err)
		}
		if got := fpHashFloats(res.Init.A, res.Init.B, res.Init.C); got != wantInit {
			t.Errorf("EstimateCtx[%s] init fingerprint = %#x, want %#x (PR 2)", r.name, got, wantInit)
		}
		if got := fpHashFloats(res.Features.E, res.Features.H, res.Features.T, res.Features.Delta); got != wantFeats {
			t.Errorf("EstimateCtx[%s] features fingerprint = %#x, want %#x (PR 2)", r.name, got, wantFeats)
		}
		fc, err := stats.FeaturesOfCtx(r.run, g)
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(featSlice(fc)...); got != wantExact {
			t.Errorf("FeaturesOfCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantExact)
		}
	}
}

func featSlice(f stats.Features) []float64 { return []float64{f.E, f.H, f.T, f.Delta} }

func TestFingerprintBaselineEstimators(t *testing.T) {
	g := fpGraphK10(t)
	const (
		wantKF = uint64(0x9bbc8c400e943082)
		wantKM = uint64(0x25efa408aca92c5f)
	)
	for _, r := range fpRuns(t, 4) {
		kf, err := kronfit.FitCtx(r.run, g, kronfit.Options{K: 10, Iters: 12, Rng: randx.New(13)})
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(kf.Init.A, kf.Init.B, kf.Init.C, kf.LogLikelihood); got != wantKF {
			t.Errorf("kronfit.FitCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantKF)
		}
		km, err := kronmom.FitGraphCtx(r.run, g, 10, kronmom.Options{Rng: randx.New(17)})
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(km.Init.A, km.Init.B, km.Init.C, km.Objective); got != wantKM {
			t.Errorf("kronmom.FitGraphCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantKM)
		}
	}
}

func TestFingerprintStatisticsPaths(t *testing.T) {
	g := fpGraphK10(t)
	const (
		wantANF = uint64(0xaf33ea602570793)
		wantSS  = uint64(0x982b28ed09bc9fe4)
	)
	for _, r := range fpRuns(t, 4) {
		hc, err := anf.HopPlotCtx(r.run, g, anf.Options{Trials: 16, Rng: randx.New(21)})
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(hc...); got != wantANF {
			t.Errorf("anf.HopPlotCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantANF)
		}
		// A nil accountant records nothing and never refuses.
		tri, err := smoothsens.PrivateTrianglesAccCtx(r.run, nil, g, 0.3, 0.01, randx.New(23))
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(tri.Noisy, float64(tri.Exact), tri.SmoothSen, tri.Scale); got != wantSS {
			t.Errorf("PrivateTrianglesAccCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantSS)
		}
	}

	// The spectral series are serial; one worker is the historical route.
	const (
		wantScree = uint64(0x15b0b395a249059)
		wantNet   = uint64(0x908559add58d1d35)
	)
	for _, r := range fpRuns(t, 1) {
		sc, err := linalg.ScreeValuesCtx(r.run, g, 16, randx.New(29))
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(sc...); got != wantScree {
			t.Errorf("ScreeValuesCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantScree)
		}
		nv, err := linalg.NetworkValuesCtx(r.run, g, randx.New(31))
		if err != nil {
			t.Fatal(err)
		}
		if got := fpHashFloats(nv[:32]...); got != wantNet {
			t.Errorf("NetworkValuesCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantNet)
		}
	}
}

func TestFingerprintEpsilonSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep fingerprint is slow")
	}
	g := fpGraphK10(t)
	const wantSweep = uint64(0x72b37f8215b9d1ca)
	hashRows := func(rows []experiments.SweepRow) uint64 {
		var vals []float64
		for _, r := range rows {
			vals = append(vals, r.Eps, r.MeanParamDiff, r.MeanFeatureErr)
		}
		return fpHashFloats(vals...)
	}
	for _, r := range fpRuns(t, 4) {
		rows, err := experiments.EpsilonSweepCtx(r.run, g, 10, []float64{0.2, 1}, 0.01, 2, 37)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashRows(rows); got != wantSweep {
			t.Errorf("EpsilonSweepCtx[%s] fingerprint = %#x, want %#x (PR 2)", r.name, got, wantSweep)
		}
	}
}
