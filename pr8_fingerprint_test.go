package dpkron_test

import (
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/extsort"
	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// PR 8 adds the mmap v2 layout and streaming generate-to-store. Both
// are pure plumbing changes: a graph loaded through a zero-copy
// mapping, and a graph that was sampled straight into spill files and
// encoded without ever materializing, must drive Algorithm 1 into the
// exact same released bits as the PR 2/PR 5 routes. These tests pin
// that across every new path.

// TestFingerprintV2Routes extends the PR 5 store pins to the v2
// layout: Put + mmap Load, and the in-place upgrade of a legacy v1
// file, all release the identical historical fingerprints.
func TestFingerprintV2Routes(t *testing.T) {
	g := fpGraphK10(t)
	const (
		wantInit  = uint64(0x1c23d17293445957)
		wantFeats = uint64(0x297d918e6156a3fb)
	)

	routes := map[string]*graph.Graph{}

	// Route 1: the v2 byte-slice codec (full checksum verification).
	fromV2, err := dataset.Unmarshal(dataset.MarshalV2(g))
	if err != nil {
		t.Fatal(err)
	}
	routes["v2-binary"] = fromV2

	// Route 2: stored (as v2) and loaded — an mmap-backed graph on unix.
	store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.Put(g, "fingerprint", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != accountant.DatasetID(g) {
		t.Fatalf("v2 store id %s != ledger fingerprint %s", meta.ID, accountant.DatasetID(g))
	}
	fromMmap, err := store.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	routes["v2-mmap-load"] = fromMmap

	// Route 3: the file replaced by its legacy v1 encoding, as an older
	// store wrote it; a fresh handle decodes it and upgrades it in place.
	// Remove before writing: rewriting the mapped inode in place would
	// change route 2's graph under it.
	path := filepath.Join(store.Dir(), meta.ID+".dpkg")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, dataset.Marshal(g), 0o644); err != nil {
		t.Fatal(err)
	}
	store2, err := dataset.Open(store.Dir()) // fresh handle: defeat the cache
	if err != nil {
		t.Fatal(err)
	}
	fromUpgrade, err := store2.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	routes["v1-legacy-upgrade"] = fromUpgrade
	if fi, err := store2.FileInfo(meta.ID); err != nil || fi.Format != 2 {
		t.Fatalf("legacy file after Load: %+v, %v; want format 2", fi, err)
	}

	for label, got := range routes {
		if !g.Equal(got) {
			t.Errorf("%s: graph differs from the original", label)
			continue
		}
		acc := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.5, Delta: 0.01})
		res, err := core.EstimateCtx(liveRun(t, 4), got, core.Options{
			Eps: 0.5, Delta: 0.01, Rng: randx.New(9), Accountant: acc,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if fp := fpHashFloats(res.Init.A, res.Init.B, res.Init.C); fp != wantInit {
			t.Errorf("%s init fingerprint = %#x, want %#x (PR 2)", label, fp, wantInit)
		}
		if fp := fpHashFloats(res.Features.E, res.Features.H, res.Features.T, res.Features.Delta); fp != wantFeats {
			t.Errorf("%s features fingerprint = %#x, want %#x (PR 2)", label, fp, wantFeats)
		}
		if id := accountant.DatasetID(got); id != meta.ID {
			t.Errorf("%s: dataset id %s != %s", label, id, meta.ID)
		}
	}
}

// TestFingerprintStreamedGenerate pins the streaming samplers: for the
// PR 2 seed, StreamExactCtx's spilled edge set must hash to the exact
// graph fingerprint SampleExactCtx pinned, and a full streaming
// generate-to-store must place a dataset whose mmap load reproduces
// the PR 2 release bits — proving the bounded-memory path changes no
// sampled bit anywhere in the pipeline.
func TestFingerprintStreamedGenerate(t *testing.T) {
	const wantGraph = uint64(0x6c10859be86b36ad) // PR 2 SampleExactCtx pin
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		t.Fatal(err)
	}
	sorter, err := extsort.NewTemp(nil, 1<<12) // small chunks: force real spills
	if err != nil {
		t.Fatal(err)
	}
	defer sorter.RemoveAll()
	es, err := m.StreamExactCtx(liveRun(t, 4), randx.New(42), sorter)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.PutStream(es, "streamed", "generated")
	if err != nil {
		t.Fatal(err)
	}
	g, err := store.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := fpHashGraph(g); got != wantGraph {
		t.Errorf("streamed graph fingerprint = %#x, want %#x (PR 2)", got, wantGraph)
	}
	if id := accountant.DatasetID(g); id != meta.ID {
		t.Errorf("streamed dataset id %s != recomputed %s", meta.ID, id)
	}

	// The in-memory sampler must agree that this is its graph.
	direct, err := m.SampleExactCtx(pipeline.New(nil, 4, nil), randx.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(g) {
		t.Error("streamed store load differs from the in-memory sample")
	}
}

// TestFingerprintStreamedBallDropWorkerInvariance: the streamed
// ball-drop edge set is identical for every worker count and chunk
// size — the same invariance contract the in-memory sampler pins.
func TestFingerprintStreamedBallDropWorkerInvariance(t *testing.T) {
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 14)
	if err != nil {
		t.Fatal(err)
	}
	const target = 12000
	want := uint64(0)
	for i, cfg := range []struct{ workers, chunk int }{
		{1, 1 << 20}, {4, 1 << 10}, {8, 257},
	} {
		sorter, err := extsort.NewTemp(nil, cfg.chunk)
		if err != nil {
			t.Fatal(err)
		}
		es, err := m.StreamBallDropNCtx(pipeline.New(nil, cfg.workers, nil), randx.New(11), target, sorter)
		if err != nil {
			t.Fatal(err)
		}
		store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err := store.PutStream(es, "inv", "generated")
		if err != nil {
			t.Fatal(err)
		}
		g, err := store.Load(meta.ID)
		if err != nil {
			t.Fatal(err)
		}
		fp := fpHashGraph(g)
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("workers=%d chunk=%d: fingerprint %#x != %#x", cfg.workers, cfg.chunk, fp, want)
		}
		es.Close()
		sorter.RemoveAll()
	}
}
