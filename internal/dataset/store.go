package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/faultfs"
	"dpkron/internal/fslock"
	"dpkron/internal/graph"
	"dpkron/internal/mmapfile"
)

// ErrNotFound marks operations naming a dataset id the store does not
// hold. Servers map it to 404.
var ErrNotFound = errors.New("dataset: not found")

// Meta is the per-dataset metadata sidecar, persisted as
// <id>.json next to the binary graph.
type Meta struct {
	// ID is the content-addressed dataset id (accountant.DatasetID):
	// the same id the privacy-budget ledger charges, so budgets follow
	// the graph bytes, not the upload path.
	ID string `json:"id"`
	// Name is the operator-facing label given at import ("ca-grqc").
	Name string `json:"name,omitempty"`
	// Nodes and Edges describe the stored graph.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Source records what the graph was imported from ("snap",
	// "snap+gzip", "mtx", "dpkg", "generated", ...).
	Source string `json:"source,omitempty"`
	// Imported is the UTC time of first import.
	Imported time.Time `json:"imported"`
	// Bytes is the size of the binary graph file.
	Bytes int64 `json:"bytes"`
	// Format is the DPKG layout version of the graph file. The store
	// writes only 2 (mmap-ready fixed-width CSR); 1 (compact varint
	// rows) names a file from an older store not yet upgraded by a
	// Load, and 0 in metadata written before formats existed means 1.
	Format int `json:"format,omitempty"`
}

// Store is a persistent, content-addressed graph store rooted at a
// directory: each dataset is a binary DPKG graph file plus a JSON
// metadata sidecar, both written via tmp-file + atomic rename so a
// crash mid-import leaves no torn dataset. Mutations additionally
// serialize through an in-process mutex plus an advisory file lock
// (internal/fslock, the accountant-ledger pattern) and reload nothing —
// the store keeps no authoritative in-memory state — so separate
// processes sharing a directory (a `dpkron serve` and a concurrent
// `dpkron dataset import`) never corrupt it.
//
// Ids are content-addressed (accountant.DatasetID): a given id can
// only ever name one graph, which makes the read cache below always
// valid and makes re-importing identical bytes a cheap no-op.
//
// Every graph file the store writes is DPKG v2, which Load maps
// instead of decoding. A DPKG v1 file left by an older store is
// decoded on its first Load and rewritten in place as v2.
//
// Cross-process safety assumes POSIX semantics: on non-unix builds
// fslock is a documented no-op and rename-over-existing may fail, so
// there a store directory should be used by a single process.
type Store struct {
	dir string
	fs  faultfs.FS
	// met carries the telemetry collectors installed by Instrument;
	// the zero value no-ops.
	met storeMetrics

	mu sync.Mutex
	// cache holds mapped graphs only: the page cache, not the heap,
	// owns their bytes, so the cache needs no budget.
	cache map[string]*graph.Graph
}

// Open returns a Store rooted at dir, creating the directory if
// needed.
func Open(dir string) (*Store, error) { return OpenFS(faultfs.OS, dir) }

// OpenFS is Open against an explicit filesystem (fault-injection
// tests).
func OpenFS(fsys faultfs.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: opening store: %w", err)
	}
	return &Store{dir: dir, fs: fsys, cache: map[string]*graph.Graph{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

const (
	graphExt = ".dpkg"
	metaExt  = ".json"
)

// validID reports whether id is safe to splice into a filename: the
// "ds-" fingerprint shape with hex digits only, so a hostile id can
// never traverse out of the store directory.
func validID(id string) bool {
	if !strings.HasPrefix(id, "ds-") || len(id) != 3+16 {
		return false
	}
	for _, c := range id[3:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) graphPath(id string) string { return filepath.Join(s.dir, id+graphExt) }
func (s *Store) metaPath(id string) string  { return filepath.Join(s.dir, id+metaExt) }

// lock takes the store's cross-process mutation lock.
func (s *Store) lock() (unlock func(), err error) {
	return fslock.Lock(filepath.Join(s.dir, "store.lock"))
}

// Put imports an in-memory graph under its content fingerprint, as a
// DPKG v2 file, and returns the dataset's metadata plus whether it was
// newly created. Importing a graph that is already stored is a no-op
// returning the existing metadata (the id is content-addressed, so the
// bytes are guaranteed identical); a half-deleted dataset — metadata
// surviving a crash mid-Delete without its graph file, or vice versa —
// is re-imported in full, not mistaken for stored.
func (s *Store) Put(g *graph.Graph, name, source string) (Meta, bool, error) {
	id := accountant.DatasetID(g)
	unlock, err := s.lock()
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: locking store: %w", err)
	}
	defer unlock()
	if m, err := s.readMeta(id); err == nil {
		if _, err := s.fs.Stat(s.graphPath(id)); err == nil {
			return m, false, nil
		}
	}
	if err := s.writeV2(id, g); err != nil {
		return Meta{}, false, err
	}
	_, size := v2Layout(g.NumNodes(), g.NumEdges())
	m := Meta{
		ID:       id,
		Name:     name,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		Source:   source,
		Imported: time.Now().UTC().Truncate(time.Second),
		Bytes:    size,
		Format:   codecVersion2,
	}
	if err := s.writeMeta(m); err != nil {
		return Meta{}, false, err
	}
	return m, true, nil
}

// writeV2 atomically writes g as the dataset's v2 graph file.
func (s *Store) writeV2(id string, g *graph.Graph) error {
	return writeAtomic(s.fs, s.graphPath(id), func(w io.Writer) error { return EncodeV2(w, g) })
}

// writeMeta persists a metadata sidecar atomically.
func (s *Store) writeMeta(m Meta) error {
	mb, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(s.fs, s.metaPath(m.ID), func(w io.Writer) error {
		_, err := w.Write(append(mb, '\n'))
		return err
	})
}

// ImportReader streams a graph from r — SNAP text, gzip, Matrix
// Market, or DPKG binary of either version, auto-detected — into the
// store.
func (s *Store) ImportReader(r io.Reader, name string, opt DecodeOptions) (Meta, error) {
	g, src, err := DecodeGraph(r, opt)
	if err != nil {
		return Meta{}, err
	}
	m, _, err := s.Put(g, name, string(src))
	return m, err
}

// Load returns the stored graph, mapped from its v2 file where the
// platform allows: O(1) in the graph size, with the adjacency paged in
// lazily by the kernel. The first map of a dataset by this handle
// verifies the file's trailing checksum once; mapped graphs are then
// cached (graphs are immutable and ids content-addressed, so cache
// entries can never go stale), with existence re-checked on disk so a
// dataset deleted by another process stops resolving. Heap-decoded
// graphs — platforms without mmap, and legacy v1 files, which Load
// upgrades to v2 in place — are verified in full and not cached.
func (s *Store) Load(id string) (*graph.Graph, error) {
	if !validID(id) {
		return nil, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	if _, err := s.fs.Stat(s.graphPath(id)); err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, fmt.Errorf("dataset: loading %s: %w", id, err)
	}
	s.mu.Lock()
	g, ok := s.cache[id]
	s.mu.Unlock()
	if ok {
		s.met.loads.With(loadRouteCache).Inc()
		return g, nil
	}
	g, route, err := s.openGraph(id)
	if err != nil {
		return nil, err
	}
	if route == loadRouteMmap {
		s.mu.Lock()
		if cached, ok := s.cache[id]; ok {
			// Lost a load race; keep the incumbent (the loser's mapping is
			// released by its finalizer once g drops out of scope).
			g = cached
		} else {
			s.cache[id] = g
		}
		s.mu.Unlock()
	}
	s.met.loads.With(route).Inc()
	return g, nil
}

// openGraph materializes one dataset from disk and names the route it
// took: v2 files go through OpenMapped plus a whole-file checksum
// check when mapped, v1 files through the legacy upgrade.
func (s *Store) openGraph(id string) (*graph.Graph, string, error) {
	path := s.graphPath(id)
	version, err := s.sniffVersion(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, "", fmt.Errorf("dataset %s: %w", id, err)
	}
	if version == codecVersion {
		g, err := s.upgradeV1(id)
		return g, loadRouteV1, err
	}
	g, mapped, err := OpenMapped(path)
	if err != nil {
		return nil, "", fmt.Errorf("dataset %s: %w", id, err)
	}
	if !mapped {
		return g, loadRouteV2Heap, nil
	}
	// OpenMapped checks only the header; the bytes behind the mapping
	// are verified here, once per handle, before the graph is cached.
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("dataset: loading %s: %w", id, err)
	}
	defer mf.Close()
	if err := verifyChecksum(mf.Bytes()); err != nil {
		return nil, "", fmt.Errorf("dataset %s: %w", id, err)
	}
	return g, loadRouteMmap, nil
}

// upgradeV1 decodes a legacy v1 graph file with full verification
// and upgrades the file to v2. The id is content-addressed over the
// graph, not the file bytes, so it is unchanged. A failed upgrade (a
// read-only directory, a full disk) leaves the v1 file as it was and
// still returns the graph.
func (s *Store) upgradeV1(id string) (*graph.Graph, error) {
	data, err := s.fs.ReadFile(s.graphPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, fmt.Errorf("dataset: loading %s: %w", id, err)
	}
	g, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", id, err)
	}
	// Best effort: the graph is verified either way, and a failed
	// rewrite leaves the v1 file for the next Load to retry.
	_ = s.rewriteV1(id, g)
	return g, nil
}

// rewriteV1 rewrites a dataset's v1 graph file in place as v2, under
// the store lock, and updates its sidecar. It does nothing unless the
// file is still v1 with a sidecar: another handle may have upgraded or
// deleted the dataset since the caller read it.
func (s *Store) rewriteV1(id string, g *graph.Graph) error {
	unlock, err := s.lock()
	if err != nil {
		return err
	}
	defer unlock()
	m, err := s.readMeta(id)
	if err != nil {
		return err
	}
	if v, err := s.sniffVersion(s.graphPath(id)); err != nil || v != codecVersion {
		return err
	}
	if err := s.writeV2(id, g); err != nil {
		return err
	}
	_, m.Bytes = v2Layout(g.NumNodes(), g.NumEdges())
	m.Format = codecVersion2
	// Should this write fail, the stale sidecar is harmless: Load and
	// FileInfo sniff the file itself.
	return s.writeMeta(m)
}

// sniffVersion reads just enough of a graph file to identify its DPKG
// layout version.
func (s *Store) sniffVersion(path string) (int, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [5]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: file shorter than its magic", ErrTruncated)
	}
	return Version(hdr[:])
}

// FileInfo describes how a dataset sits on disk: its layout version,
// byte size, and whether Load would mmap it on this platform.
type FileInfo struct {
	// Format is the DPKG layout version of the graph file (1 or 2).
	Format int
	// Bytes is the graph file's current size.
	Bytes int64
	// Mmap reports whether Load would open the file zero-copy via mmap
	// on this build (v2 layout on a unix platform).
	Mmap bool
}

// FileInfo inspects the stored graph file of a dataset, sniffing the
// live bytes rather than trusting the metadata sidecar.
func (s *Store) FileInfo(id string) (FileInfo, error) {
	if !validID(id) {
		return FileInfo{}, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	path := s.graphPath(id)
	st, err := s.fs.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return FileInfo{}, fmt.Errorf("dataset: inspecting %s: %w", id, err)
	}
	version, err := s.sniffVersion(path)
	if err != nil {
		return FileInfo{}, fmt.Errorf("dataset %s: %w", id, err)
	}
	return FileInfo{
		Format: version,
		Bytes:  st.Size(),
		Mmap:   version == codecVersion2 && mmapSupported,
	}, nil
}

// Meta returns the stored metadata of a dataset.
func (s *Store) Meta(id string) (Meta, error) {
	if !validID(id) {
		return Meta{}, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	return s.readMeta(id)
}

// Has reports whether the store holds the dataset.
func (s *Store) Has(id string) bool {
	if !validID(id) {
		return false
	}
	_, err := s.fs.Stat(s.graphPath(id))
	return err == nil
}

func (s *Store) readMeta(id string) (Meta, error) {
	b, err := s.fs.ReadFile(s.metaPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return Meta{}, fmt.Errorf("dataset: reading metadata of %s: %w", id, err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, fmt.Errorf("dataset: metadata of %s is corrupt: %w", id, err)
	}
	return m, nil
}

// List returns the metadata of every stored dataset, sorted by import
// time then id. The listing is read fresh from disk on every call, so
// imports and deletes by other processes are always visible.
func (s *Store) List() ([]Meta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: listing store: %w", err)
	}
	var out []Meta
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, metaExt) {
			continue
		}
		id := strings.TrimSuffix(name, metaExt)
		if !validID(id) {
			continue
		}
		m, err := s.readMeta(id)
		if err != nil {
			// Skip unreadable entries (a raced delete, or one damaged
			// sidecar) rather than failing the whole listing — every
			// healthy dataset stays visible.
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Imported.Equal(out[j].Imported) {
			return out[i].Imported.Before(out[j].Imported)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Delete removes a dataset's graph and metadata. Budgets already spent
// against its id remain in any ledger — deletion frees storage, it
// does not reset a privacy account.
func (s *Store) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	unlock, err := s.lock()
	if err != nil {
		return fmt.Errorf("dataset: locking store: %w", err)
	}
	defer unlock()
	if _, err := s.fs.Stat(s.graphPath(id)); os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err := s.fs.Remove(s.graphPath(id)); err != nil {
		return fmt.Errorf("dataset: deleting %s: %w", id, err)
	}
	if err := s.fs.Remove(s.metaPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dataset: deleting metadata of %s: %w", id, err)
	}
	s.mu.Lock()
	delete(s.cache, id) // a held mapping stays valid until its last user drops it
	s.mu.Unlock()
	return nil
}

// ExportEdgeList writes the stored graph as SNAP edge-list text — the
// canonical form whose re-import reproduces the identical dataset id.
func (s *Store) ExportEdgeList(id string, w io.Writer) error {
	g, err := s.Load(id)
	if err != nil {
		return err
	}
	return g.WriteEdgeList(w)
}

// writeAtomic streams write's output to path via a tmp file, fsync
// and rename, so readers only ever observe complete files. Any failure
// removes the tmp file.
func writeAtomic(fsys faultfs.FS, path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()            // already closed on a rename failure; the error is moot
			_ = fsys.Remove(tmp) // best effort: err already reports the failed write
		}
	}()
	if err := write(f); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("dataset: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: closing %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("dataset: committing %s: %w", path, err)
	}
	return nil
}
