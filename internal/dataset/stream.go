package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"dpkron/internal/extsort"
)

// EdgeSource is a re-iterable stream of a graph's edges for streaming
// ingest. Edges yields the packed upper-triangle keys u<<32|v (u < v),
// strictly ascending with no duplicates — the order extsort's
// merge-dedup naturally produces — and may be called more than once:
// PutStream makes two passes, one to size the CSR layout and one to
// write it. The interface is structural on purpose, so samplers can
// satisfy it without importing this package.
type EdgeSource interface {
	// NumNodes is the node count of the streamed graph.
	NumNodes() int
	// Edges returns a fresh iterator over the sorted unique edge keys.
	Edges() (*extsort.Iterator, error)
}

// PutStream imports a graph from an edge stream without ever holding
// its edge set in memory: peak residency is O(n) for the CSR offsets
// plus O(sort chunk) for an external re-sort of the reversed keys —
// not O(m). The graph lands directly in the v2 mmap layout, and the
// content-addressed id is computed on the fly during the first pass,
// so a re-import of an already-stored graph is detected before any
// file is written. Returns the metadata plus whether the dataset was
// newly created.
//
// The id is bit-identical to Put's: the hash consumes the same bytes
// accountant.DatasetID feeds it, in the same (sorted) edge order.
func (s *Store) PutStream(src EdgeSource, name, source string) (Meta, bool, error) {
	return s.putStream(src, name, source, extsort.DefaultChunk)
}

// putStream is PutStream with an explicit external-sort chunk size
// (tests shrink it to force multi-run spills).
func (s *Store) putStream(src EdgeSource, name, source string, chunk int) (Meta, bool, error) {
	n := src.NumNodes()
	if n < 0 || n >= 1<<31 {
		return Meta{}, false, fmt.Errorf("dataset: streaming %d nodes exceeds the node-id limit", n)
	}

	// The v2 adjacency lists every neighbor of every row in order, which
	// interleaves lower neighbors (from edges where this row is v) with
	// upper ones (where it is u). The natural key stream gives the upper
	// halves; an external re-sort of the reversed keys v<<32|u gives the
	// lower halves in exactly row-major order. Spill runs live beside
	// the store so they share its filesystem (and fault injection).
	spillDir, err := os.MkdirTemp(s.dir, "spill-")
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: creating spill dir: %w", err)
	}
	sorter, err := extsort.New(s.fs, spillDir, chunk)
	if err != nil {
		os.RemoveAll(spillDir)
		return Meta{}, false, err
	}
	defer sorter.RemoveAll()

	// Pass 1: validate and count. Degrees become CSR offsets, the id
	// hash consumes each edge as accountant.DatasetID would, and every
	// reversed key is spilled for pass 2.
	h := sha256.New()
	var hbuf [16]byte
	binary.LittleEndian.PutUint64(hbuf[:8], uint64(n))
	h.Write(hbuf[:8])
	off := make([]int32, n+1)
	m := 0
	rev := sorter.Writer()
	it, err := src.Edges()
	if err != nil {
		rev.Close()
		return Meta{}, false, err
	}
	err = func() error {
		defer it.Close()
		for {
			key, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			u, v := int(uint64(key)>>32), int(uint64(key)&0xffffffff)
			if u < 0 || u >= v || v >= n {
				return fmt.Errorf("dataset: streamed edge (%d,%d) outside 0 <= u < v < %d", u, v, n)
			}
			if m >= v2MaxEdges {
				return fmt.Errorf("dataset: streamed graph exceeds the v2 limit of %d edges", v2MaxEdges)
			}
			binary.LittleEndian.PutUint64(hbuf[:8], uint64(u))
			binary.LittleEndian.PutUint64(hbuf[8:], uint64(v))
			h.Write(hbuf[:])
			off[u+1]++
			off[v+1]++
			m++
			if err := rev.Add(int64(v)<<32 | int64(u)); err != nil {
				return err
			}
		}
	}()
	if cerr := rev.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Meta{}, false, err
	}
	id := fmt.Sprintf("ds-%x", h.Sum(nil)[:8])

	unlock, err := s.lock()
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: locking store: %w", err)
	}
	defer unlock()
	if meta, err := s.readMeta(id); err == nil {
		if _, err := s.fs.Stat(s.graphPath(id)); err == nil {
			return meta, false, nil
		}
	}

	for i := 0; i < n; i++ { // degree counts -> prefix sums
		off[i+1] += off[i]
	}

	// Pass 2: co-merge the natural and reversed key streams. Both are
	// ascending and disjoint (natural keys have high < low, reversed
	// high > low), and plain int64 order on the union is exactly
	// row-major CSR order — the low 32 bits of each key are the
	// neighbor.
	nat, err := src.Edges()
	if err != nil {
		return Meta{}, false, err
	}
	defer nat.Close()
	low, err := sorter.Merge()
	if err != nil {
		return Meta{}, false, err
	}
	defer low.Close()

	if err := writeAtomic(s.fs, s.graphPath(id), func(w io.Writer) error {
		return writeV2Stream(w, n, m, off, nat, low)
	}); err != nil {
		return Meta{}, false, err
	}

	_, fileSize := v2Layout(n, m)
	meta := Meta{
		ID:       id,
		Name:     name,
		Nodes:    n,
		Edges:    m,
		Source:   source,
		Imported: time.Now().UTC().Truncate(time.Second),
		Bytes:    fileSize,
		Format:   codecVersion2,
	}
	if err := s.writeMeta(meta); err != nil {
		return Meta{}, false, err
	}
	return meta, true, nil
}

// writeV2Stream renders a complete v2 file — header, offsets, padding,
// co-merged adjacency, trailing checksum — onto w. nat and low are the
// ascending natural (u<<32|v) and reversed (v<<32|u) key streams.
func writeV2Stream(w io.Writer, n, m int, off []int32, nat, low *extsort.Iterator) error {
	h := sha256.New()
	bw := bufio.NewWriterSize(w, 1<<16)
	mw := io.MultiWriter(bw, h)
	if _, err := mw.Write(v2Header(n, m)); err != nil {
		return err
	}
	if err := writeInt32sLE(mw, off); err != nil {
		return err
	}
	adjPos, _ := v2Layout(n, m)
	if pad := adjPos - int64(v2HeaderLen) - 4*int64(n+1); pad > 0 {
		if _, err := mw.Write(make([]byte, pad)); err != nil {
			return err
		}
	}

	natKey, natOK, err := nat.Next()
	if err != nil {
		return err
	}
	lowKey, lowOK, err := low.Next()
	if err != nil {
		return err
	}
	var buf [4096]byte
	fill := 0
	flush := func() error {
		_, err := mw.Write(buf[:fill])
		fill = 0
		return err
	}
	emit := func(neighbor int64) error {
		if fill == len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(buf[fill:], uint32(uint64(neighbor)&0xffffffff))
		fill += 4
		return nil
	}
	wrote := 0
	for natOK || lowOK {
		var key int64
		if !lowOK || (natOK && natKey < lowKey) {
			key = natKey
			if natKey, natOK, err = nat.Next(); err != nil {
				return err
			}
		} else {
			key = lowKey
			if lowKey, lowOK, err = low.Next(); err != nil {
				return err
			}
		}
		if err := emit(key); err != nil {
			return err
		}
		wrote++
	}
	if wrote != 2*m {
		return fmt.Errorf("dataset: adjacency stream yielded %d entries, want %d (edge source changed between passes?)", wrote, 2*m)
	}
	if err := flush(); err != nil {
		return err
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return err
	}
	return bw.Flush()
}
