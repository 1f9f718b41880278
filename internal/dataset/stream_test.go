package dataset

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/extsort"
	"dpkron/internal/faultfs"
	"dpkron/internal/graph"
)

// sliceEdgeSource adapts an in-memory graph to the EdgeSource
// interface by spilling its packed edges through a throwaway sorter —
// the test stand-in for a streaming sampler.
type sliceEdgeSource struct {
	n    int
	keys []int64
}

func newSliceEdgeSource(tb testing.TB, g *graph.Graph) *sliceEdgeSource {
	tb.Helper()
	var keys []int64
	g.ForEachEdge(func(u, v int) { keys = append(keys, int64(u)<<32|int64(v)) })
	return &sliceEdgeSource{n: g.NumNodes(), keys: keys}
}

func (s *sliceEdgeSource) NumNodes() int { return s.n }

func (s *sliceEdgeSource) Edges() (*extsort.Iterator, error) {
	sorter, err := extsort.NewTemp(nil, 0)
	if err != nil {
		return nil, err
	}
	w := sorter.Writer()
	if err := w.AddSorted(s.keys); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	it, err := sorter.Merge()
	// The spill dir leaks until process exit on the error path only;
	// tests run in t.TempDir-adjacent temp space.
	_ = err
	return it, err
}

// TestPutStreamMatchesPut: the streaming ingest is a drop-in for Put —
// same content-addressed id, same metadata, and the same file bytes,
// for every spill chunk size.
func TestPutStreamMatchesPut(t *testing.T) {
	for name, g := range testGraphs(t) {
		if g.NumNodes() == 0 {
			continue // DatasetID of the empty graph is fine, but Put covers it
		}
		wantID := accountant.DatasetID(g)
		put, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		pm, _, err := put.Put(g, "s", "streamed")
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(put.graphPath(pm.ID))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{7, extsort.DefaultChunk} {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			m, created, err := st.putStream(newSliceEdgeSource(t, g), "s", "streamed", chunk)
			if err != nil {
				t.Fatalf("%s (chunk %d): %v", name, chunk, err)
			}
			if !created {
				t.Fatalf("%s: first PutStream reported existing", name)
			}
			if m.ID != wantID {
				t.Fatalf("%s: streamed id %s, want %s", name, m.ID, wantID)
			}
			if m.Nodes != g.NumNodes() || m.Edges != g.NumEdges() || m.Format != 2 || m.Bytes != pm.Bytes {
				t.Fatalf("%s: meta %+v does not describe the graph (Put: %+v)", name, m, pm)
			}
			onDisk, err := os.ReadFile(st.graphPath(m.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, wantBytes) {
				t.Fatalf("%s (chunk %d): streamed v2 file differs from Put's", name, chunk)
			}
			back, err := st.Load(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(back) {
				t.Fatalf("%s: loaded streamed graph differs", name)
			}
			// Re-streaming the identical graph is a no-op detected before
			// any file write (the id forms during pass 1).
			m2, created, err := st.putStream(newSliceEdgeSource(t, g), "s", "streamed", chunk)
			if err != nil {
				t.Fatal(err)
			}
			if created || m2.ID != m.ID {
				t.Fatalf("%s: re-stream was not an idempotent no-op", name)
			}
		}
	}
}

// TestPutStreamRejectsBadEdges: a source yielding out-of-range or
// misordered node pairs fails with an error, not a corrupt dataset.
func TestPutStreamRejectsBadEdges(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*sliceEdgeSource{
		"v-out-of-range": {n: 4, keys: []int64{int64(1)<<32 | 9}},
		"self-loop":      {n: 4, keys: []int64{int64(2)<<32 | 2}},
		"inverted":       {n: 4, keys: []int64{int64(3)<<32 | 1}},
	}
	for name, src := range cases {
		if _, _, err := st.PutStream(src, "bad", "test"); err == nil {
			t.Errorf("%s: PutStream accepted a hostile edge stream", name)
		}
	}
}

// TestPutStreamFaults: spill and commit failures during streaming
// ingest surface as errors and leave no torn dataset behind.
func TestPutStreamFaults(t *testing.T) {
	g := testGraphs(t)["path"]
	for fault, f := range map[string]faultfs.Fault{
		"spill-write":  {Op: faultfs.OpWrite, Path: ".run", Short: 4},
		"graph-rename": {Op: faultfs.OpRename, Path: graphExt},
		"graph-write":  {Op: faultfs.OpWrite, Path: graphExt + ".tmp", Short: 8},
		"merge-reopen": {Op: faultfs.OpOpen, Path: ".run", After: 2},
		"meta-sync":    {Op: faultfs.OpSync, Path: metaExt},
	} {
		inj := faultfs.NewInjector(faultfs.OS).Fail(f)
		dir := t.TempDir()
		st, err := OpenFS(inj, dir)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = st.putStream(newSliceEdgeSource(t, g), "f", "test", 3)
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("%s: got %v, want ErrInjected", fault, err)
		}
		assertNoTmp(t, dir)
		// Whatever failed, the store must not list a dataset whose graph
		// file is absent or torn.
		list, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range list {
			if _, err := st.Load(m.ID); err != nil {
				t.Errorf("%s: store lists %s but it does not load: %v", fault, m.ID, err)
			}
		}
	}
}

// TestStoreMmapLoadAndCache: a stored dataset loads via mmap on
// supported platforms, only a mapped graph is cached, and an
// already-loaded graph keeps serving after deletion (the mapping
// outlives the file).
func TestStoreMmapLoadAndCache(t *testing.T) {
	g := testGraphs(t)["skg-k10"]
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.Put(g, "v2", "test")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := st.FileInfo(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Format != 2 || fi.Bytes != m.Bytes {
		t.Fatalf("FileInfo %+v disagrees with meta %+v", fi, m)
	}
	loaded, err := st.Load(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(loaded) {
		t.Fatal("v2 load changed the graph")
	}
	st.mu.Lock()
	cached, inCache := st.cache[m.ID]
	st.mu.Unlock()
	if inCache != fi.Mmap {
		t.Errorf("cached = %v, want %v (only mapped graphs are cached)", inCache, fi.Mmap)
	}
	if inCache && cached != loaded {
		t.Error("cache holds a different graph than Load returned")
	}
	if err := st.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	_, inCache = st.cache[m.ID]
	st.mu.Unlock()
	if inCache {
		t.Error("Delete left the graph cached")
	}
	// The held reference stays fully readable after deletion: on unix
	// the kernel keeps the unlinked inode alive under the mapping.
	deg := 0
	loaded.ForEachEdge(func(u, v int) { deg++ })
	if deg != g.NumEdges() {
		t.Fatalf("post-delete iteration saw %d edges, want %d", deg, g.NumEdges())
	}
}
