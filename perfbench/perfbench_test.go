package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dpkron/internal/server"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json
// declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, workload string, seed uint64, traced bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 1, trace: traced, root: t.TempDir(), tiny: true}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d of %d", workload, res.Correct, res.Failed, res.Attempted)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, ".bench_state", workload+"-"+strconv.Itoa(os.Getpid()))); !os.IsNotExist(err) {
		t.Errorf("%s: state directory left behind (%v)", workload, err)
	}
	return res
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
			continue
		}
		if m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v %q, want a finite value in %q", what, name, m.Value, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range []string{"fit-dense", "fit-sparse", "serve-mix"} {
		sameMetrics(t, w, tinyRun(t, w, 1, false).Metrics, endToEnd)
		sameMetrics(t, w+" traced", tinyRun(t, w, 1, true).Metrics, perLayer)
	}
}

func TestSeedsGiveDifferentInputsSameMetrics(t *testing.T) {
	for _, name := range []string{"fit-sparse", "serve-mix"} {
		var ids [2]string
		for i, seed := range []uint64{1, 2} {
			w := workloads[name](config{seed: seed}, sizesFor(true))
			if err := w.prepare(); err != nil {
				t.Fatal(err)
			}
			switch w := w.(type) {
			case *fitWorkload:
				ids[i] = w.first.id
			case *mixWorkload:
				ids[i] = w.inputs[0].id
			}
		}
		if ids[0] == ids[1] {
			t.Errorf("%s: seeds 1 and 2 gave the same input %s", name, ids[0])
		}
	}
	a, b := tinyRun(t, "fit-sparse", 1, false), tinyRun(t, "fit-sparse", 2, false)
	for name := range a.Metrics {
		if _, ok := b.Metrics[name]; !ok {
			t.Errorf("seed 2 lacks metric %s", name)
		}
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Errorf("seed 1 gave %d metrics, seed 2 %d", len(a.Metrics), len(b.Metrics))
	}
}

// TestChecksRejectCorruptedRelease serves a tampered release from the
// cache and corrupts released fields one at a time; every check must
// catch what it covers.
func TestChecksRejectCorruptedRelease(t *testing.T) {
	sz := sizesFor(true)
	w := workloads["fit-dense"](config{seed: 3}, sz).(*fitWorkload)
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	e, err := startEnv(t.TempDir(), false, w)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	rec := newRecorder()
	if err := e.importGraph(rec, w.first); err != nil {
		t.Fatal(err)
	}
	if err := e.ledger.SetBudget(w.first.id, e.planned.Total); err != nil {
		t.Fatal(err)
	}
	q := question{ds: w.first.id, seed: w.first.seed, k: w.model.K}
	fr, _, err := e.fitCold(rec, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRelease(fr, w.ref); err != nil {
		t.Fatal(err)
	}
	if err := e.fitCached(rec, q, fr); err != nil {
		t.Fatal(err)
	}

	corrupt := map[string]func(*server.FitResult){
		"initiator": func(r *server.FitResult) { r.Initiator.B = math.Nextafter(r.Initiator.B, 1) },
		"nan":       func(r *server.FitResult) { v := math.NaN(); r.Objective = &v },
		"receipt": func(r *server.FitResult) {
			rc := *r.Receipt
			rc.Charges = append(rc.Charges[:0:0], rc.Charges...)
			rc.Charges[0].Eps *= 2
			r.Receipt = &rc
		},
	}
	for name, fn := range corrupt {
		bad := fr
		fn(&bad)
		if checkRelease(bad, e.planned, q.k) == nil && sameRelease(bad, w.ref) == nil {
			t.Errorf("%s: corrupted release passed the checks", name)
		}
	}

	// A cache that serves another release for the question: the repeat
	// must fail its check.
	tampered := fr
	tampered.Remaining = nil
	tampered.Initiator.A = math.Nextafter(tampered.Initiator.A, 0)
	if _, err := e.cache.Put(q.key(e.planned), tampered); err != nil {
		t.Fatal(err)
	}
	if err := e.fitCached(rec, q, fr); err == nil {
		t.Error("a tampered cached release passed the repeat check")
	}
}

// TestMixScheduleIsExact checks that every block of the serve-mix
// schedule holds exactly the mix shares, whatever the seed, and that
// operation 0 is a new question.
func TestMixScheduleIsExact(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		w := &mixWorkload{cfg: config{seed: seed}}
		if u := w.slot(0); u >= shareNew {
			t.Errorf("seed %d: operation 0 has slot %d, not a new question", seed, u)
		}
		orders := map[[mixBlock]uint64]bool{}
		for b := uint64(0); b < 50; b++ {
			var order [mixBlock]uint64
			counts := map[string]int{}
			for j := uint64(0); j < mixBlock; j++ {
				u := w.slot(b*mixBlock + j)
				order[j] = u
				switch {
				case u < shareNew:
					counts["new"]++
				case u < shareNew+shareRepeat:
					counts["repeat"]++
				case u < shareNew+shareRepeat+shareRead:
					counts["read"]++
				case u < shareNew+shareRepeat+shareRead+shareGenerate:
					counts["generate"]++
				default:
					counts["refused"]++
				}
			}
			orders[order] = true
			want := map[string]int{"new": 8, "repeat": 6, "read": 4, "generate": 1, "refused": 1}
			for k, n := range want {
				if counts[k] != n {
					t.Fatalf("seed %d block %d: %d %s operations, want %d", seed, b, counts[k], k, n)
				}
			}
		}
		if len(orders) < 40 {
			t.Errorf("seed %d: only %d distinct block orders in 50 blocks", seed, len(orders))
		}
	}
}
