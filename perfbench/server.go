package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/dp"
	"dpkron/internal/journal"
	"dpkron/internal/obs"
	"dpkron/internal/release"
	"dpkron/internal/server"
	"dpkron/internal/trace"
)

// pollInterval is the wait between job-status polls. A client waits
// for each reply, as `dpkron job wait` does, but polls faster than its
// 50 ms so that a fit's latency is resolved to a few milliseconds.
const pollInterval = 2 * time.Millisecond

// jobWorkers is the worker count the server gives each job: Workers
// (nproc) split across the default two job slots.
func jobWorkers() int { return max(1, runtime.NumCPU()/2) }

// plannedReceipt is the receipt every fit must carry, normalised
// through JSON so that it compares equal to a decoded one.
func plannedReceipt() accountant.Receipt {
	var r accountant.Receipt
	b, _ := json.Marshal(core.PlannedReceipt(fitEps, fitDelta))
	_ = json.Unmarshal(b, &r)
	return r
}

// env is one production-configured server on a fresh state directory,
// serving on a loopback listener, plus the client that drives it.
type env struct {
	dir     string
	store   *dataset.Store
	ledger  *accountant.Ledger
	cache   *release.Cache
	jnl     *journal.Journal
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	hc      *http.Client
	planned accountant.Receipt
}

func startEnv(dir string, traced bool, w workload) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := w.preload(filepath.Join(dir, "ledger.json")); err != nil {
		return nil, fmt.Errorf("preloading the ledger: %w", err)
	}
	e := &env{dir: dir, planned: plannedReceipt(), served: make(chan error, 1)}
	var err error
	if e.store, err = dataset.Open(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	if e.ledger, err = accountant.Open(filepath.Join(dir, "ledger.json")); err != nil {
		return nil, err
	}
	if e.cache, err = release.Open(filepath.Join(dir, "releases")); err != nil {
		return nil, err
	}
	if e.jnl, err = journal.Open(filepath.Join(dir, "journal")); err != nil {
		return nil, err
	}
	// The access and job logs are formatted as `dpkron serve` formats
	// them, then discarded.
	logger, err := obs.NewLogger(io.Discard, "text", "info")
	if err != nil {
		e.jnl.Close()
		return nil, err
	}
	opts := server.Options{
		Workers: runtime.NumCPU(), Ledger: e.ledger, Datasets: e.store, Releases: e.cache,
		Journal: e.jnl, Metrics: obs.NewRegistry(), Logger: logger,
	}
	if traced {
		opts.Traces = trace.NewStore(0)
	}
	e.srv = server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		e.jnl.Close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU() + 2, DisableCompression: true},
		Timeout:   5 * time.Minute,
	}
	if st, body, err := e.call("GET", "/readyz", nil); err != nil || st != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("server not ready: %d %s %v", st, body, err)
	}
	return e, nil
}

// stopServing shuts the listener and the job manager down, leaving
// the stores open for direct calls.
func (e *env) stopServing() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Drain(ctx)
	e.srv.Close()
	e.hc.CloseIdleConnections()
	e.hs = nil
}

func (e *env) close() {
	e.stopServing()
	e.jnl.Close()
}

// call sends one request and returns the status and the whole body.
func (e *env) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// counters scrapes GET /metrics and sums every counter sample by
// family name.
func (e *env) counters() (map[string]float64, error) {
	st, body, err := e.call("GET", "/metrics", nil)
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %d %v", st, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		end := strings.IndexAny(line, "{ ")
		if strings.HasPrefix(line, "#") || end < 0 || !strings.HasSuffix(line[:end], "_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err == nil {
			out[line[:end]] += v
		}
	}
	return out, sc.Err()
}

// question is one private fit request against a stored dataset.
type question struct {
	ds   string
	seed uint64
	k    int
}

func (q question) body() []byte {
	b, _ := json.Marshal(server.FitRequest{Method: "private", Eps: fitEps, Delta: fitDelta, K: q.k, Seed: q.seed, DatasetID: q.ds})
	return b
}

func (q question) key(planned accountant.Receipt) release.Key {
	return release.KeyFor(q.ds, fitEps, fitDelta, q.k, q.seed, planned)
}

func (q question) fingerprint(planned accountant.Receipt) string { return q.key(planned).Fingerprint() }

type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// wait polls a job until it is terminal.
func (e *env) wait(rec *recorder, id string) (jobView, error) {
	for {
		t0 := time.Now()
		st, body, err := e.call("GET", "/v1/jobs/"+id, nil)
		rec.poll(time.Since(t0))
		if err != nil {
			return jobView{}, err
		}
		if st != http.StatusOK {
			return jobView{}, fmt.Errorf("polling %s: %d %s", id, st, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			return jobView{}, fmt.Errorf("polling %s: %w", id, err)
		}
		switch v.Status {
		case server.StatusDone:
			return v, nil
		case server.StatusFailed, server.StatusCancelled:
			return v, fmt.Errorf("job %s %s: %s", id, v.Status, v.Error)
		}
		time.Sleep(pollInterval)
	}
}

// fitCold asks a question the release cache has not seen, waits for
// the job, and checks the release.
func (e *env) fitCold(rec *recorder, q question) (server.FitResult, string, error) {
	var fr server.FitResult
	t0 := time.Now()
	st, body, err := e.call("POST", "/v1/fit", q.body())
	if err != nil {
		return fr, "", err
	}
	if st != http.StatusAccepted {
		return fr, "", fmt.Errorf("new question on %s: want 202, got %d %s", q.ds, st, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return fr, "", err
	}
	if v, err = e.wait(rec, v.ID); err != nil {
		return fr, "", err
	}
	d := time.Since(t0)
	rec.observe(clsFit, d)
	rec.coldFit(v.ID, d)
	if err := json.Unmarshal(v.Result, &fr); err != nil {
		return fr, "", fmt.Errorf("decoding fit result: %w", err)
	}
	if err := checkRelease(fr, e.planned, q.k); err != nil {
		return fr, "", fmt.Errorf("job %s: %w", v.ID, err)
	}
	if fr.Dataset != q.ds || fr.Remaining == nil {
		return fr, "", fmt.Errorf("job %s: charged %q (remaining %v), want %q", v.ID, fr.Dataset, fr.Remaining, q.ds)
	}
	rec.checked(1)
	return fr, v.ID, nil
}

// fitCached repeats an answered question: it must be served from the
// release cache with the original fingerprint and initiator.
func (e *env) fitCached(rec *recorder, q question, want server.FitResult) error {
	t0 := time.Now()
	st, body, err := e.call("POST", "/v1/fit", q.body())
	rec.observe(clsCached, time.Since(t0))
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("repeated question on %s: want 200, got %d %s", q.ds, st, body)
	}
	var v jobView
	var c server.CachedFitResult
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if err := json.Unmarshal(v.Result, &c); err != nil {
		return fmt.Errorf("decoding cached result: %w", err)
	}
	if !c.Cached || c.Release != q.fingerprint(e.planned) {
		return fmt.Errorf("repeated question on %s: cached=%v release %q, want %q", q.ds, c.Cached, c.Release, q.fingerprint(e.planned))
	}
	if err := checkRelease(c.FitResult, e.planned, q.k); err != nil {
		return fmt.Errorf("cached release %s: %w", c.Release, err)
	}
	if err := sameInitiator(c.FitResult, want); err != nil {
		return fmt.Errorf("cached release %s: %w", c.Release, err)
	}
	rec.checked(1)
	return nil
}

// fitRefused asks a new question of an exhausted account: it must be
// refused with 429 and the ledger's remaining budget.
func (e *env) fitRefused(rec *recorder, q question) error {
	t0 := time.Now()
	st, body, err := e.call("POST", "/v1/fit", q.body())
	rec.observe(clsRefused, time.Since(t0))
	if err != nil {
		return err
	}
	var r struct {
		Dataset   string     `json:"dataset"`
		Remaining *dp.Budget `json:"remaining"`
	}
	if st != http.StatusTooManyRequests || json.Unmarshal(body, &r) != nil || r.Remaining == nil {
		return fmt.Errorf("question on exhausted %s: want 429 with remaining budget, got %d %s", q.ds, st, body)
	}
	if want := e.ledger.Remaining(q.ds); r.Dataset != q.ds || *r.Remaining != want {
		return fmt.Errorf("refusal on %s reports %q remaining %v, ledger has %v", q.ds, r.Dataset, *r.Remaining, want)
	}
	return nil
}

// readJob reads a finished fit job back.
func (e *env) readJob(rec *recorder, id string, want server.FitResult) error {
	t0 := time.Now()
	st, body, err := e.call("GET", "/v1/jobs/"+id, nil)
	rec.observe(clsRead, time.Since(t0))
	if err != nil {
		return err
	}
	var v jobView
	var fr server.FitResult
	if st != http.StatusOK || json.Unmarshal(body, &v) != nil || v.Status != server.StatusDone || json.Unmarshal(v.Result, &fr) != nil {
		return fmt.Errorf("reading job %s: %d %s", id, st, body)
	}
	if err := checkRelease(fr, e.planned, want.K); err != nil {
		return fmt.Errorf("job %s read back: %w", id, err)
	}
	return sameInitiator(fr, want)
}

// readBudget reads an account; exact demands the ledger's figure (when
// no debit can race the read).
func (e *env) readBudget(rec *recorder, ds string, exact bool) error {
	t0 := time.Now()
	st, body, err := e.call("GET", "/v1/budget/"+ds, nil)
	rec.observe(clsRead, time.Since(t0))
	if err != nil {
		return err
	}
	var b struct {
		Budget    dp.Budget `json:"budget"`
		Remaining dp.Budget `json:"remaining"`
	}
	if st != http.StatusOK || json.Unmarshal(body, &b) != nil {
		return fmt.Errorf("reading budget of %s: %d %s", ds, st, body)
	}
	if exact {
		if want := e.ledger.Remaining(ds); b.Remaining != want {
			return fmt.Errorf("budget of %s reports remaining %v, ledger has %v", ds, b.Remaining, want)
		}
	}
	if !finite(b.Remaining.Eps, b.Remaining.Delta) || b.Remaining.Eps < 0 || b.Remaining.Eps > b.Budget.Eps {
		return fmt.Errorf("budget of %s: remaining %v outside [0, %v]", ds, b.Remaining, b.Budget)
	}
	return nil
}

// readRelease reads a cached release back by fingerprint.
func (e *env) readRelease(rec *recorder, fp string, want server.FitResult) error {
	t0 := time.Now()
	st, body, err := e.call("GET", "/v1/releases/"+fp, nil)
	rec.observe(clsRead, time.Since(t0))
	if err != nil {
		return err
	}
	var ent release.Entry
	var fr server.FitResult
	if st != http.StatusOK || json.Unmarshal(body, &ent) != nil || json.Unmarshal(ent.Payload, &fr) != nil {
		return fmt.Errorf("reading release %s: %d %s", fp, st, body)
	}
	if ent.Fingerprint != fp {
		return fmt.Errorf("release %s read back as %s", fp, ent.Fingerprint)
	}
	if err := checkRelease(fr, e.planned, want.K); err != nil {
		return fmt.Errorf("release %s: %w", fp, err)
	}
	return sameInitiator(fr, want)
}

// generate samples a ball-drop graph into the store and waits for it.
func (e *env) generate(rec *recorder, m genModel, seed uint64) error {
	req := server.GenerateRequest{A: m.A, B: m.B, C: m.C, K: m.K, Seed: seed, Method: "balldrop", Store: true, OmitEdges: true}
	b, _ := json.Marshal(req)
	t0 := time.Now()
	st, body, err := e.call("POST", "/v1/generate", b)
	if err != nil {
		return err
	}
	var v jobView
	if st != http.StatusAccepted || json.Unmarshal(body, &v) != nil {
		return fmt.Errorf("generate: want 202, got %d %s", st, body)
	}
	if v, err = e.wait(rec, v.ID); err != nil {
		return err
	}
	rec.observe(clsGenerate, time.Since(t0))
	var g server.GenerateResult
	if err := json.Unmarshal(v.Result, &g); err != nil {
		return fmt.Errorf("decoding generate result: %w", err)
	}
	if g.Nodes != 1<<m.K || g.Edges <= 0 || g.Dataset == nil || !strings.HasPrefix(g.Dataset.ID, "ds-") || g.Dataset.Edges != g.Edges {
		return fmt.Errorf("generate job %s: implausible result %s", v.ID, v.Result)
	}
	return nil
}

// importGraph uploads SNAP text; the store must assign the graph's
// content id.
func (e *env) importGraph(rec *recorder, in *input) error {
	t0 := time.Now()
	st, body, err := e.call("POST", "/v1/datasets?name="+in.id, in.text)
	rec.observe(clsImport, time.Since(t0))
	if err != nil {
		return err
	}
	var m dataset.Meta
	if st != http.StatusCreated || json.Unmarshal(body, &m) != nil {
		return fmt.Errorf("import: want 201, got %d %s", st, body)
	}
	if m.ID != in.id || m.Nodes != in.g.NumNodes() || m.Edges != in.g.NumEdges() {
		return fmt.Errorf("import stored %s (%d nodes, %d edges), want %s (%d, %d)",
			m.ID, m.Nodes, m.Edges, in.id, in.g.NumNodes(), in.g.NumEdges())
	}
	return nil
}

// deleteDataset removes an uploaded dataset; its ledger account stays.
func (e *env) deleteDataset(id string) error {
	st, body, err := e.call("DELETE", "/v1/datasets/"+id, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("deleting %s: %d %s", id, st, body)
	}
	return nil
}

// checkRelease checks what every served fit must satisfy: the private
// method at the asked power, only finite numbers, and a receipt equal
// to core.PlannedReceipt(ε, δ).
func checkRelease(fr server.FitResult, planned accountant.Receipt, k int) error {
	if fr.Method != "private" || fr.K != k {
		return fmt.Errorf("release is method %q at k=%d, want private at k=%d", fr.Method, fr.K, k)
	}
	if fr.Objective == nil || fr.Features == nil || fr.Privacy == nil || fr.Spent == nil || fr.Receipt == nil {
		return fmt.Errorf("release lacks objective, features, privacy, spend or receipt")
	}
	nums := []float64{fr.Initiator.A, fr.Initiator.B, fr.Initiator.C, *fr.Objective,
		fr.Features.E, fr.Features.H, fr.Features.T, fr.Features.Delta,
		fr.Privacy.Eps, fr.Privacy.Delta, fr.Spent.Eps, fr.Spent.Delta}
	if fr.Remaining != nil {
		nums = append(nums, fr.Remaining.Eps, fr.Remaining.Delta)
	}
	if !finite(nums...) {
		return fmt.Errorf("release holds a non-finite number: %v", nums)
	}
	if !reflect.DeepEqual(*fr.Receipt, planned) || *fr.Spent != planned.Total || *fr.Privacy != planned.Total {
		return fmt.Errorf("receipt %+v (spent %v) differs from core.PlannedReceipt %+v", *fr.Receipt, *fr.Spent, planned)
	}
	return nil
}

// sameRelease demands the served release be bit-identical to a direct
// core.EstimateCtx result.
func sameRelease(fr server.FitResult, ref *core.Result) error {
	got := []float64{fr.Initiator.A, fr.Initiator.B, fr.Initiator.C, *fr.Objective,
		fr.Features.E, fr.Features.H, fr.Features.T, fr.Features.Delta}
	want := []float64{ref.Init.A, ref.Init.B, ref.Init.C, ref.Moment.Objective,
		ref.Features.E, ref.Features.H, ref.Features.T, ref.Features.Delta}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("served release %v differs from direct core.EstimateCtx %v", got, want)
		}
	}
	return nil
}

func sameInitiator(got, want server.FitResult) error {
	if got.Initiator != want.Initiator {
		return fmt.Errorf("initiator %+v, originally released %+v", got.Initiator, want.Initiator)
	}
	return nil
}

func finite(v ...float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
