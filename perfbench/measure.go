package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sizes are the workload dimensions; sizesFor(true) shrinks them for
// the benchmark's own tests.
type sizes struct {
	denseK, denseTarget int // fit-dense: ball-drop at a fixed edge target
	sparseK             int // fit-sparse: ball-drop at the expected edge count
	mixK, mixDatasets   int // serve-mix stored datasets
	genK                int // every workload's POST /v1/generate
	preload             int // serve-mix receipts on the long-lived account
	warm                int // serve-mix questions answered in setup
	// Set-ups per run; setup_s is their median. A fit workload's
	// set-up takes about a millisecond, so it is repeated more often.
	setups, fitSetups int
	minOps, maxOps    int // fit sessions per run
}

func sizesFor(tiny bool) sizes {
	if tiny {
		return sizes{denseK: 9, denseTarget: 1 << 11, sparseK: 10, mixK: 8, mixDatasets: 4,
			genK: 8, preload: 20, warm: 6, setups: 2, fitSetups: 3, minOps: 2, maxOps: 1000}
	}
	return sizes{denseK: 15, denseTarget: 1 << 19, sparseK: 18, mixK: 13, mixDatasets: 4,
		genK: 13, preload: 1000, warm: 6, setups: 9, fitSetups: 31, minOps: 3, maxOps: 40}
}

// Latency classes of the requests the workloads send.
const (
	clsImport   = "import"
	clsFit      = "fit"      // release-cache miss, submit until done is observed
	clsCached   = "cached"   // release-cache hit
	clsRead     = "read"     // every GET: job polls and explicit reads
	clsGenerate = "generate" // submit until done is observed
	clsRefused  = "refused"  // 429 budget refusal
)

type coldFit struct {
	job     string
	seconds float64
}

// recorder collects one phase's samples. Each operation counts once in
// attempted, and once in failed when any of its outputs is wrong.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64
	attempted int
	failed    int
	errs      []string
	releases  int // released fits whose contents were checked
	polls     int
	cold      []coldFit
	busy      time.Duration // measured wall time
	ops       int           // operations inside measured windows
	alloc, gc uint64        // runtime deltas inside measured windows
	// open is the start of the measured window in progress, zero
	// outside one; ends holds the measured time, in seconds, at which
	// each operation inside a window completed.
	open time.Time
	ends []float64
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

func (r *recorder) observe(class string, d time.Duration) {
	r.mu.Lock()
	r.lat[class] = append(r.lat[class], d.Seconds())
	r.mu.Unlock()
}

// poll records one job-status poll, which is also a read.
func (r *recorder) poll(d time.Duration) {
	r.observe(clsRead, d)
	r.mu.Lock()
	r.polls++
	r.mu.Unlock()
}

func (r *recorder) checked(n int) {
	r.mu.Lock()
	r.releases += n
	r.mu.Unlock()
}

func (r *recorder) coldFit(job string, d time.Duration) {
	r.mu.Lock()
	r.cold = append(r.cold, coldFit{job, d.Seconds()})
	r.mu.Unlock()
}

// op runs one operation and counts its outcome.
func (r *recorder) op(fn func() error) {
	err := fn()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !r.open.IsZero() {
		r.ends = append(r.ends, (r.busy + time.Since(r.open)).Seconds())
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		}
	}
}

// window measures fn as part of the phase: its wall time, the
// operations it completed, and the allocation and GC-cycle deltas.
func (r *recorder) window(fn func()) {
	a0, g0 := runtimeCounts()
	r.mu.Lock()
	ops0 := r.attempted
	t0 := time.Now()
	r.open = t0
	r.mu.Unlock()
	fn()
	d := time.Since(t0)
	a1, g1 := runtimeCounts()
	r.mu.Lock()
	r.open = time.Time{}
	r.busy += d
	r.ops += r.attempted - ops0
	r.alloc += a1 - a0
	r.gc += g1 - g0
	r.mu.Unlock()
}

// mergeSetup folds a set-up's checked releases and import latencies
// (serve-mix imports its datasets there) into the phase; a set-up that
// fails aborts the run instead.
func (r *recorder) mergeSetup(s *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[clsImport] = append(r.lat[clsImport], s.lat[clsImport]...)
	r.releases += s.releases
}

func runtimeCounts() (alloc, gc uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// phase is one run of a workload against one server: its set-ups and
// its measured window.
type phase struct {
	traced   bool
	rec      *recorder
	chunk    int // completions per chunk of opsPerSecond
	setups   []float64
	counters map[string]float64 // /metrics counter deltas over the window
	env      *env               // the measured server, still open
}

// runPhase sets the server up w.setupRuns() times on fresh state
// directories, measures the workload on the last one, and checks the
// final state. The returned phase's env is still open.
func runPhase(cfg config, w workload, dir string, traced bool) (*phase, error) {
	ph := &phase{traced: traced, rec: newRecorder(), chunk: w.chunk()}
	// Flush what earlier runs left dirty, so that its writeback does not
	// land in this run's fsyncs.
	syscall.Sync()
	for i := 0; i < w.setupRuns(); i++ {
		if ph.env != nil {
			ph.env.close()
		}
		srec := newRecorder()
		t0 := time.Now()
		e, err := startEnv(filepath.Join(dir, strconv.Itoa(i)), traced, w)
		if err == nil {
			err = w.setup(e, srec)
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
		ph.env = e
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.rec.mergeSetup(srec)
	}
	syscall.Sync()
	// Start the window from a collected heap, so that garbage from the
	// set-ups is not charged to it.
	runtime.GC()
	before, err := ph.env.counters()
	if err != nil {
		ph.env.close()
		return nil, err
	}
	w.measure(ph.env, ph.rec, cfg.seconds)
	after, err := ph.env.counters()
	if err != nil {
		ph.env.close()
		return nil, err
	}
	ph.counters = map[string]float64{}
	for k, v := range after {
		ph.counters[k] = v - before[k]
	}
	ph.rec.op(func() error { return w.verify(ph.env) })
	if ph.rec.ops == 0 {
		ph.env.close()
		return nil, fmt.Errorf("no operation completed in %gs", cfg.seconds)
	}
	return ph, nil
}

// opsPerSecond is the median throughput over chunks of ph.chunk
// consecutive completions, each chunk over the measured time it spans.
// It is a median so that a few seconds of load from other tenants of
// the host, during one part of a run, do not move it.
func (ph *phase) opsPerSecond() float64 {
	if rates := ph.chunkRates(); len(rates) > 0 {
		return median(rates)
	}
	return float64(ph.rec.ops) / ph.rec.busy.Seconds()
}

// chunkRates splits the measured time at every ph.chunk-th completion
// and gives each piece's operations per second; a last piece with fewer
// completions is left out.
func (ph *phase) chunkRates() []float64 {
	ends := append([]float64(nil), ph.rec.ends...)
	sort.Float64s(ends)
	var rates []float64
	prev := 0.0
	for k := ph.chunk; k <= len(ends); k += ph.chunk {
		rates = append(rates, float64(ph.chunk)/(ends[k-1]-prev))
		prev = ends[k-1]
	}
	return rates
}

// endToEnd derives the metrics a user of the server sees.
func endToEnd(ph *phase) map[string]metric {
	r := ph.rec
	m := map[string]metric{
		"setup_s":     {median(ph.setups), "s"},
		"ops_per_s":   {ph.opsPerSecond(), "1/s"},
		"ok_frac":     {float64(r.attempted-r.failed) / float64(r.attempted), "frac"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	if v := r.lat[clsFit]; len(v) > 0 {
		m["fit_p50_s"] = metric{quantile(v, 0.5), "s"}
	}
	return m
}

// supportsP90 reports whether n samples leave at least ten beyond the
// 90th percentile.
func supportsP90(n int) bool { return n >= 100 }

// summary is the human-readable account of a phase: sample counts and
// every percentile the samples support. The latencies here that are not
// end-to-end metrics (README.md says why) are reported only here.
func (ph *phase) summary() map[string]any {
	r := ph.rec
	lat := map[string]any{}
	for cls, v := range r.lat {
		s := map[string]any{"n": len(v), "p50_s": quantile(v, 0.5)}
		if supportsP90(len(v)) {
			s["p90_s"] = quantile(v, 0.9)
		}
		lat[cls] = s
	}
	return map[string]any{
		"traced": ph.traced, "setup_s": ph.setups, "ops": r.ops, "busy_s": r.busy.Seconds(),
		"ops_per_s": ph.opsPerSecond(), "attempted": r.attempted, "failed": r.failed,
		"error_frac": float64(r.failed) / float64(r.attempted), "errors": r.errs,
		"releases_checked": r.releases, "latency": lat,
		"ops_per_s_overall": float64(r.ops) / r.busy.Seconds(), "chunk_ops_per_s": ph.chunkRates(),
	}
}

func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// fsType names the filesystem holding path, from its Linux statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x01021997: "9p", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, when it has
// one, without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git work tree)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// mix derives independent 64-bit values from the workload seed
// (splitmix64 finalizer), so every input is a function of the seed.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
