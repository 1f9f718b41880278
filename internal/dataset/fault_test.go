package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/faultfs"
)

// TestStorePutInjectedFaults fails each point of Put's two atomic
// writes (graph payload, then metadata sidecar) and asserts a failed
// import is reported, leaves no tmp file and is never half-visible:
// the id either resolves to the complete graph or to ErrNotFound, and
// a retry after the fault clears succeeds.
func TestStorePutInjectedFaults(t *testing.T) {
	faults := []struct {
		name  string
		fault faultfs.Fault
	}{
		{"graph-open", faultfs.Fault{Op: faultfs.OpOpen, Path: ".dpkg.tmp"}},
		{"graph-short-write", faultfs.Fault{Op: faultfs.OpWrite, Path: ".dpkg.tmp", Short: 12}},
		{"graph-sync", faultfs.Fault{Op: faultfs.OpSync, Path: ".dpkg.tmp"}},
		{"graph-rename", faultfs.Fault{Op: faultfs.OpRename, Path: ".dpkg.tmp"}},
		{"meta-short-write", faultfs.Fault{Op: faultfs.OpWrite, Path: ".json.tmp", Short: 5}},
		{"meta-rename", faultfs.Fault{Op: faultfs.OpRename, Path: ".json.tmp"}},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			dir := filepath.Join(t.TempDir(), "store")
			s, err := OpenFS(inj, dir)
			if err != nil {
				t.Fatal(err)
			}
			g := sampleGraph(t, 7)
			inj.Fail(tc.fault)
			if _, _, err := s.Put(g, "toy", "generated"); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Put under %s fault: %v, want ErrInjected", tc.name, err)
			}
			assertNoTmp(t, dir)
			// Retry with the fault cleared: the import completes and the
			// graph round-trips.
			m, _, err := s.Put(g, "toy", "generated")
			if err != nil {
				t.Fatalf("Put after %s fault cleared: %v", tc.name, err)
			}
			fresh, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Load(m.ID)
			if err != nil {
				t.Fatalf("Load after recovered import: %v", err)
			}
			if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
				t.Fatalf("recovered graph %d/%d, want %d/%d",
					got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
			}
		})
	}
}

// TestStoreLegacyUpgradeFault: when the in-place v2 rewrite of a
// legacy v1 file fails, Load still returns the graph, the v1 file stays
// byte-identical, no tmp file is left, and a later Load upgrades.
func TestStoreLegacyUpgradeFault(t *testing.T) {
	g := sampleGraph(t, 19)
	dir := filepath.Join(t.TempDir(), "store")
	id := writeLegacyDataset(t, dir, g)
	path := filepath.Join(dir, id+graphExt)
	v1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.OS)
	s, err := OpenFS(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	inj.Fail(faultfs.Fault{Op: faultfs.OpRename, Path: graphExt + ".tmp"})
	got, err := s.Load(id)
	if err != nil {
		t.Fatalf("Load under an upgrade fault: %v", err)
	}
	if !g.Equal(got) {
		t.Fatal("Load under an upgrade fault returned a different graph")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("v1 file changed by a failed upgrade (read err %v)", err)
	}
	assertNoTmp(t, dir)
	if fi, err := s.FileInfo(id); err != nil || fi.Format != 1 {
		t.Fatalf("FileInfo after a failed upgrade: %+v, %v; want format 1", fi, err)
	}
	// The fault fired once; the next Load upgrades the file.
	if _, err := s.Load(id); err != nil {
		t.Fatal(err)
	}
	if fi, err := s.FileInfo(id); err != nil || fi.Format != 2 {
		t.Fatalf("FileInfo after the retried upgrade: %+v, %v; want format 2", fi, err)
	}
}

// assertNoTmp fails the test if dir holds a tmp file of an atomic write.
func assertNoTmp(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Errorf("tmp files left behind: %v", tmps)
	}
}
