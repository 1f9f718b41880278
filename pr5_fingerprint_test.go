package dpkron_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/randx"
)

// PR 5 introduces the persistent dataset store and its binary CSR
// codec. A stored graph must load bit-identically to parsing the
// original edge list — same CSR arrays, hence the same neighbour
// iteration order, hence the same released bits for any fixed seed.
// These tests pin that end to end against the PR 2 hashes (via
// pr3_fingerprint_test.go constants): text parse, binary round trip,
// and a store Put/Load cycle must all feed Algorithm 1 into the exact
// historical release.

func TestFingerprintStoredDatasetEstimate(t *testing.T) {
	g := fpGraphK10(t)
	const (
		wantInit  = uint64(0x1c23d17293445957)
		wantFeats = uint64(0x297d918e6156a3fb)
	)

	// Route 1: the graph as serialized edge-list text (how the paper's
	// datasets arrive).
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := graph.ReadEdgeList(&text, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Route 2: the binary codec.
	fromBinary, err := dataset.Unmarshal(dataset.Marshal(g))
	if err != nil {
		t.Fatal(err)
	}

	// Route 3: a full store Put/Load cycle on disk.
	store, err := dataset.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.Put(g, "fingerprint", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != accountant.DatasetID(g) {
		t.Fatalf("store id %s != ledger fingerprint %s", meta.ID, accountant.DatasetID(g))
	}
	fromStore, err := store.Load(meta.ID)
	if err != nil {
		t.Fatal(err)
	}

	for label, got := range map[string]*graph.Graph{
		"text-parse":  fromText,
		"binary-load": fromBinary,
		"store-load":  fromStore,
	} {
		if !g.Equal(got) {
			t.Errorf("%s: graph differs from the original", label)
			continue
		}
		// The loaded graph drives the accounted Algorithm 1 with the
		// exact PR 2/PR 4 seeds and must release the pinned bits.
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
		// The content id survives every route, so ledger spend keyed by
		// it accrues to one account no matter how the graph was loaded.
		if id := accountant.DatasetID(got); id != meta.ID {
			t.Errorf("%s: dataset id %s != %s", label, id, meta.ID)
		}
	}
}

// TestFingerprintStreamingReadEdgeList pins the PR 5 scanner refactor:
// the streaming ReadEdgeList must produce the identical graph (and
// hence the identical sampler fingerprint input) as the historical
// slice-accumulating parser did, including header handling.
func TestFingerprintStreamingReadEdgeList(t *testing.T) {
	g := fpGraphK10(t)
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	const wantGraph = uint64(0x6c10859be86b36ad) // PR 2 SampleExactCtx pin
	if got := fpHashGraph(back); got != wantGraph {
		t.Errorf("streamed parse fingerprint = %#x, want %#x (PR 2)", got, wantGraph)
	}
}
