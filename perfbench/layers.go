package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/degseq"
	"dpkron/internal/journal"
	"dpkron/internal/kronmom"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/server"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
	"dpkron/internal/trace"
)

// maxTraces bounds the cold-fit span trees read back per run.
const maxTraces = 200

// perLayer derives the per-layer metrics: span self times from the
// traced phase, the benchmark's own timed calls into each layer on the
// traced phase's inputs and final state, and counts from the untraced
// phase. The traced phase's server is stopped here; its stores stay
// open for the direct calls.
func perLayer(cfg config, sz sizes, w workload, plain, traced *phase) (map[string]metric, error) {
	spans, err := readSpans(traced)
	if err != nil {
		return nil, err
	}
	traced.env.stopServing()
	m := map[string]metric{
		"server.admission_s":     {spans.median("admission-self"), "s"},
		"server.queue_wait_s":    {spans.median("queue-wait"), "s"},
		"server.run_self_s":      {spans.median("run-self"), "s"},
		"server.span_coverage":   {spans.median("coverage"), "ratio"},
		"server.polls_per_op":    {float64(plain.rec.polls) / float64(plain.rec.ops), "count"},
		"journal.appends_per_op": {plain.counters["dpkron_journal_appends_total"] / float64(plain.rec.ops), "count"},
		"go.alloc_bytes_per_op":  {float64(plain.rec.alloc) / float64(plain.rec.ops), "bytes"},
		"go.gc_cycles_per_op":    {float64(plain.rec.gc) / float64(plain.rec.ops), "count"},
		"trace.overhead":         {traced.opsPerSecond() / plain.opsPerSecond(), "ratio"},
	}
	hits, misses := plain.counters["dpkron_release_cache_hits_total"], plain.counters["dpkron_release_cache_misses_total"]
	m["release.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	if fi, err := os.Stat(traced.env.ledger.Path()); err == nil {
		m["accountant.ledger_bytes"] = metric{float64(fi.Size()), "bytes"}
	}
	calls, err := timeLayers(cfg, sz, w, traced.env)
	if err != nil {
		return nil, err
	}
	for name, v := range calls {
		m[name] = metric{v, "s"}
	}
	return m, nil
}

// spanSamples holds per-job values read from span trees.
type spanSamples map[string][]float64

func (s spanSamples) median(k string) float64 { return median(s[k]) }

// readSpans reads back the span trees of the traced phase's most recent
// cold fits through GET /v1/jobs/{id}/trace. Older jobs may have been
// evicted with the job history; those are skipped.
func readSpans(ph *phase) (spanSamples, error) {
	s := spanSamples{}
	cold := ph.rec.cold
	if len(cold) > maxTraces {
		cold = cold[len(cold)-maxTraces:]
	}
	for _, c := range cold {
		st, body, err := ph.env.call("GET", "/v1/jobs/"+c.job+"/trace", nil)
		if err != nil {
			return nil, err
		}
		if st == http.StatusNotFound {
			continue
		}
		var tree trace.Tree
		if st != http.StatusOK || json.Unmarshal(body, &tree) != nil {
			return nil, fmt.Errorf("reading trace of %s: %d %s", c.job, st, body)
		}
		var admission, queue, run float64
		tree.Walk(func(n *trace.Node, depth int) {
			if depth != 1 {
				return
			}
			switch n.Name {
			case "admission":
				admission = n.Seconds
				s["admission-self"] = append(s["admission-self"], selfTime(n))
			case "queue-wait":
				queue = n.Seconds
				s["queue-wait"] = append(s["queue-wait"], n.Seconds)
			case "run":
				run = n.Seconds
				s["run-self"] = append(s["run-self"], selfTime(n))
			}
		})
		s["coverage"] = append(s["coverage"], (admission+queue+run)/c.seconds)
	}
	if len(s["run-self"]) == 0 {
		return nil, fmt.Errorf("no cold-fit trace could be read back")
	}
	return s, nil
}

// selfTime is a span's duration minus its children's.
func selfTime(n *trace.Node) float64 {
	t := n.Seconds
	for _, c := range n.Children {
		t -= c.Seconds
	}
	return t
}

// timeLayers times the benchmark's own calls into each layer's public
// function, on the workload's graph and the run's final state, with the
// worker count the server gives a job. Each is the median of repeated
// calls.
func timeLayers(cfg config, sz sizes, w workload, e *env) (map[string]float64, error) {
	in, q, ref := w.layerInput()
	workers := jobWorkers()
	run := pipeline.New(nil, workers, nil)
	k := q.k
	out := map[string]float64{}
	var seq int
	next := func() uint64 { seq++; return mix(cfg.seed, 7<<40+uint64(seq)) }
	scratch := filepath.Join(e.dir, "layers")
	fresh := func() string { return filepath.Join(scratch, strconv.Itoa(seq)) }
	var imported string // the store the import probes last wrote
	gen, err := skg.NewModel(theta, sz.genK)
	if err != nil {
		return nil, err
	}
	probe := "bench-layer-probe"
	if err := e.ledger.SetBudget(probe, ampleBudget); err != nil {
		return nil, err
	}
	var payload server.FitResult
	if ent, ok := e.cache.Get(q.key(e.planned)); !ok || json.Unmarshal(ent.Payload, &payload) != nil {
		return nil, fmt.Errorf("release of %s seed %d missing from the cache", q.ds, q.seed)
	}
	admitted, err := json.Marshal(server.FitRequest{Method: "private", Eps: fitEps, Delta: fitDelta, K: k, Seed: q.seed, DatasetID: q.ds})
	if err != nil {
		return nil, err
	}
	layers := []struct {
		name string
		fn   func() error
	}{
		{"smoothsens.max_common_neighbors_s", func() error {
			_, err := smoothsens.MaxCommonNeighborsCtx(run, in.g)
			return err
		}},
		{"stats.triangles_s", func() error {
			_, err := stats.TrianglesCtx(run, in.g)
			return err
		}},
		{"degseq.private_s", func() error {
			_, err := degseq.PrivateAcc(accountant.New(nil), in.g, fitEps/2, randx.New(next()))
			return err
		}},
		{"kronmom.fit_s", func() error {
			_, err := kronmom.FitCtx(run, ref.Features, k, kronmom.Options{Rng: randx.New(next())})
			return err
		}},
		{"dataset.import_s", func() error {
			st, err := dataset.Open(fresh())
			next()
			if err != nil {
				return err
			}
			imported = st.Dir()
			_, err = st.ImportReader(bytes.NewReader(in.text), "probe", dataset.DecodeOptions{})
			return err
		}},
		{"dataset.load_s", func() error {
			// A fresh handle has an empty decode cache: the first Load of
			// a dataset, as the fit of a new upload pays it.
			st, err := dataset.Open(imported)
			if err == nil {
				_, err = st.Load(in.id)
			}
			return err
		}},
		{"accountant.ledger_debit_s", func() error {
			return e.ledger.SpendToken(probe, e.planned, "probe-"+strconv.FormatUint(next(), 16))
		}},
		{"accountant.ledger_refusal_s", func() error {
			if err := e.ledger.Spend(in.id+"-unbudgeted", e.planned); err == nil {
				return fmt.Errorf("a spend on an unbudgeted account was accepted")
			}
			return nil
		}},
		{"journal.append_s", func() error {
			id := "probe-" + strconv.FormatUint(next(), 16)
			return e.jnl.Append(journal.Record{Job: id, State: journal.StateAdmitted, Kind: "fit/private",
				Request: admitted, Dataset: q.ds, Planned: &e.planned, Token: id}, true)
		}},
		{"release.lookup_s", func() error {
			if _, ok := e.cache.Get(q.key(e.planned)); !ok {
				return fmt.Errorf("cached release vanished")
			}
			return nil
		}},
		{"release.put_s", func() error {
			_, err := e.cache.Put(question{ds: q.ds, seed: next(), k: q.k}.key(e.planned), payload)
			return err
		}},
		{"skg.sample_s", func() error {
			_, err := gen.SampleBallDropCtx(run, randx.New(next()))
			return err
		}},
	}
	for _, l := range layers {
		v, err := repeat(l.fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
		out[l.name] = v
	}
	// Algorithm 1's stage times come from the pipeline's own events,
	// which the Run delivers one at a time.
	stages := map[string][]float64{}
	start := map[string]time.Time{}
	sink := func(ev pipeline.Event) {
		if !ev.Done() {
			start[ev.Stage] = time.Now()
		} else if t0, ok := start[ev.Stage]; ok {
			stages[ev.Stage] = append(stages[ev.Stage], time.Since(t0).Seconds())
		}
	}
	if _, err := repeat(func() error {
		_, err := core.EstimateCtx(pipeline.New(nil, workers, sink), in.g,
			core.Options{Eps: fitEps, Delta: fitDelta, K: k, Rng: randx.New(in.seed)})
		return err
	}); err != nil {
		return nil, fmt.Errorf("core.EstimateCtx: %w", err)
	}
	for name, stage := range map[string]string{
		"core.degree_release_s":   "algorithm1/degree-release",
		"core.triangle_release_s": "algorithm1/triangle-release",
		"core.moment_fit_s":       "algorithm1/moment-fit",
	} {
		if len(stages[stage]) == 0 {
			return nil, fmt.Errorf("core.EstimateCtx emitted no %s stage", stage)
		}
		out[name] = median(stages[stage])
	}
	return out, os.RemoveAll(scratch)
}

// repeat times fn at least 3 times and until 0.3 s have passed (at most
// 200 times), and returns the median.
func repeat(fn func() error) (float64, error) {
	var v []float64
	var total time.Duration
	for len(v) < 3 || (total < 300*time.Millisecond && len(v) < 200) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		v = append(v, d.Seconds())
	}
	return median(v), nil
}
