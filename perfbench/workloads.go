package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/core"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/server"
	"dpkron/internal/skg"
)

// workload is one traffic pattern. prepare makes the inputs from the
// seed, untimed; preload and setup are part of every set-up; measure
// runs the measured window; verify checks the final state.
type workload interface {
	prepare() error
	describe() []graphProps
	preload(ledgerPath string) error
	setup(e *env, rec *recorder) error
	measure(e *env, rec *recorder, seconds float64)
	verify(e *env) error
	// setupRuns is the number of set-ups per run.
	setupRuns() int
	// chunk is the number of consecutive completions that each rate
	// ops_per_s takes the median of spans.
	chunk() int
	// layerInput is the graph the per-layer calls run on, a question on
	// it that the release cache has answered, and the direct reference
	// release of its first question.
	layerInput() (*input, question, *core.Result)
}

var workloads = map[string]func(config, sizes) workload{
	"fit-dense": func(c config, s sizes) workload {
		return &fitWorkload{cfg: c, sz: s, model: genModel{theta, s.denseK}, target: s.denseTarget}
	},
	"fit-sparse": func(c config, s sizes) workload {
		return &fitWorkload{cfg: c, sz: s, model: genModel{theta, s.sparseK}}
	},
	"serve-mix": func(c config, s sizes) workload { return &mixWorkload{cfg: c, sz: s} },
}

// theta is the initiator of every sampled graph: Θ = (0.99, 0.45, 0.25).
var theta = skg.Initiator{A: 0.99, B: 0.45, C: 0.25}

type genModel struct {
	skg.Initiator
	K int
}

// input is one graph as the benchmark uploads it, with its content id
// and the seed of the first question asked of it.
type input struct {
	g    *graph.Graph
	text []byte
	id   string
	seed uint64
}

// sample draws graph i of a workload from the seed; target 0 selects
// the model's expected edge count.
func sample(m genModel, target int, seed uint64, i uint64) (*input, error) {
	model, err := skg.NewModel(m.Initiator, m.K)
	if err != nil {
		return nil, err
	}
	run := pipeline.New(nil, 0, nil)
	rng := randx.New(mix(seed, i))
	var g *graph.Graph
	if target > 0 {
		g, err = model.SampleBallDropNCtx(run, rng, target)
	} else {
		g, err = model.SampleBallDropCtx(run, rng)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return nil, err
	}
	return &input{g: g, text: buf.Bytes(), id: accountant.DatasetID(g), seed: mix(seed, i+1<<32) | 1}, nil
}

// graphProps are the input properties the kernels' cost follows.
type graphProps struct {
	Nodes, Edges, MaxDegree int
	// Wedges is Σ d(d−1)/2, the work of the common-neighbour scan.
	Wedges int64
}

func props(g *graph.Graph) graphProps {
	p := graphProps{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for _, d := range g.Degrees() {
		p.MaxDegree = max(p.MaxDegree, d)
		p.Wedges += int64(d) * int64(d-1) / 2
	}
	return p
}

// reference runs Algorithm 1 directly, as the server's job would.
func reference(in *input, k int) (*core.Result, error) {
	return core.EstimateCtx(pipeline.New(nil, jobWorkers(), nil), in.g,
		core.Options{Eps: fitEps, Delta: fitDelta, K: k, Rng: randx.New(in.seed)})
}

// fitWorkload is fit-dense and fit-sparse. One client runs sessions:
// upload a never-seen graph, allot budget for one release, fit it
// privately, and delete the upload. Inputs for the next session are
// sampled between sessions, outside the measured windows.
type fitWorkload struct {
	cfg    config
	sz     sizes
	model  genModel
	target int
	first  *input
	ref    *core.Result
	fitted []string // datasets fitted in the current set-up
}

func (w *fitWorkload) prepare() (err error) {
	if w.first, err = sample(w.model, w.target, w.cfg.seed, 0); err != nil {
		return err
	}
	w.ref, err = reference(w.first, w.model.K)
	return err
}

func (w *fitWorkload) describe() []graphProps { return []graphProps{props(w.first.g)} }

func (w *fitWorkload) preload(string) error { return nil }

func (w *fitWorkload) setup(*env, *recorder) error {
	w.fitted = nil
	return nil
}

func (w *fitWorkload) measure(e *env, rec *recorder, seconds float64) {
	// maxOps bounds the sampling done between sessions, and with it the
	// run's wall time, however fast sessions become.
	for i := 0; i < w.sz.minOps || (rec.busy.Seconds() < seconds && i < w.sz.maxOps); i++ {
		in := w.first
		if i > 0 {
			var err error
			if in, err = sample(w.model, w.target, w.cfg.seed, uint64(i)); err != nil {
				rec.op(func() error { return fmt.Errorf("sampling input %d: %w", i, err) })
				return
			}
		}
		// Start every session from a collected heap, so garbage from
		// sampling its input is not charged to it.
		runtime.GC()
		rec.window(func() { rec.op(func() error { return w.session(e, rec, in, i) }) })
	}
}

func (w *fitWorkload) session(e *env, rec *recorder, in *input, i int) error {
	if err := e.importGraph(rec, in); err != nil {
		return err
	}
	// The data owner allots budget for exactly one release.
	if err := e.ledger.SetBudget(in.id, e.planned.Total); err != nil {
		return err
	}
	q := question{ds: in.id, seed: in.seed, k: w.model.K}
	fr, _, err := e.fitCold(rec, q)
	if err != nil {
		return err
	}
	w.fitted = append(w.fitted, in.id)
	if i == 0 {
		if err := sameRelease(fr, w.ref); err != nil {
			return err
		}
	}
	// The owner deletes the upload once it is released; the store's
	// decode cache then holds no graph from earlier sessions, so the
	// peak RSS does not grow with the number of sessions run.
	return e.deleteDataset(in.id)
}

// verify checks each fitted account holds exactly its one debit.
func (w *fitWorkload) verify(e *env) error {
	for _, ds := range w.fitted {
		acct, ok := e.ledger.Account(ds)
		if !ok || acct.Spent != e.planned.Total || len(acct.Receipts) != 1 {
			return fmt.Errorf("ledger account %s spent %v in %d receipts, want %v in 1", ds, acct.Spent, len(acct.Receipts), e.planned.Total)
		}
	}
	return nil
}

func (w *fitWorkload) setupRuns() int { return w.sz.fitSetups }

// chunk is one session: ops_per_s is sessions per second at the median
// session.
func (w *fitWorkload) chunk() int { return 1 }

func (w *fitWorkload) layerInput() (*input, question, *core.Result) {
	return w.first, question{ds: w.first.id, seed: w.first.seed, k: w.model.K}, w.ref
}

// mixWorkload is serve-mix: nproc closed-loop clients send a fixed mix
// against a few small stored datasets. Dataset 0 is a long-lived
// account preloaded with receipts; the last dataset's budget is
// exhausted, so every question asked of it is refused.
type mixWorkload struct {
	cfg    config
	sz     sizes
	inputs []*input
	ref    *core.Result
	// preSpent is dataset 0's spend after the preload.
	preSpent dp.Budget

	mu     sync.Mutex
	warm   []warmFit      // questions answered in the current set-up
	debits map[string]int // accepted debits per dataset since the preload
	last   warmFit        // the most recently finished fit job
}

type warmFit struct {
	q   question
	fr  server.FitResult
	job string
}

// Mix shares in percent, in the order the op switch tests them.
const (
	shareNew      = 40 // new question: release-cache miss and debit
	shareRepeat   = 30 // repeated question: release-cache hit
	shareRead     = 20 // GET job, budget or release
	shareGenerate = 5  // POST /v1/generate with store
	// The remaining 5: new question on the exhausted dataset, refused.
)

// mixBlock is the length of one block of the schedule. Every block of
// mixBlock consecutive operations holds exactly the shares above, in an
// order drawn from the seed, so the mix a run realizes, and with it its
// cost per operation, is the same for every seed.
const mixBlock = 20

var (
	ampleBudget = dp.Budget{Eps: 1e6, Delta: 0.5}
	// tightBudget is below one fit's ε, so every fit is refused.
	tightBudget = dp.Budget{Eps: 0.1, Delta: fitDelta}
)

func (w *mixWorkload) m() genModel { return genModel{theta, w.sz.mixK} }

func (w *mixWorkload) exhausted() string { return w.inputs[len(w.inputs)-1].id }

func (w *mixWorkload) prepare() error {
	for i := 0; i < w.sz.mixDatasets; i++ {
		in, err := sample(w.m(), 0, w.cfg.seed, uint64(i))
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
	}
	var err error
	w.ref, err = reference(w.inputs[0], w.sz.mixK)
	return err
}

func (w *mixWorkload) describe() []graphProps {
	var p []graphProps
	for _, in := range w.inputs {
		p = append(p, props(in.g))
	}
	return p
}

// preload writes the ledger a long-lived deployment would have: dataset
// 0 with sz.preload prior receipts, the others with fresh budgets, the
// last one below the price of a fit. Replaying that many debits through
// Spend would cost a whole-file rewrite each, so the file is written
// directly in the ledger's JSON format and read back by accountant.Open.
func (w *mixWorkload) preload(path string) error {
	planned := plannedReceipt()
	acct := &accountant.Account{Budget: ampleBudget}
	stamp := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < w.sz.preload; i++ {
		r := planned
		r.Token = fmt.Sprintf("preload-%d", i)
		t := stamp.Add(time.Duration(i) * time.Minute)
		r.Time = &t
		acct.Spent = dp.Compose(acct.Spent, r.Total)
		acct.Receipts = append(acct.Receipts, r)
	}
	w.preSpent = acct.Spent
	accounts := map[string]*accountant.Account{w.inputs[0].id: acct}
	for _, in := range w.inputs[1:] {
		accounts[in.id] = &accountant.Account{Budget: ampleBudget}
	}
	accounts[w.exhausted()] = &accountant.Account{Budget: tightBudget}
	b, err := json.MarshalIndent(map[string]any{"version": 1, "datasets": accounts}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setup imports the datasets and answers sz.warm questions, which the
// repeated questions and reads then ask about.
func (w *mixWorkload) setup(e *env, rec *recorder) error {
	if acct, _ := e.ledger.Account(w.inputs[0].id); len(acct.Receipts) != w.sz.preload || acct.Spent != w.preSpent {
		return fmt.Errorf("preloaded ledger reads back %d receipts spending %v", len(acct.Receipts), acct.Spent)
	}
	w.warm, w.debits = nil, map[string]int{}
	for _, in := range w.inputs {
		if err := e.importGraph(rec, in); err != nil {
			return err
		}
	}
	for j := 0; j < w.sz.warm; j++ {
		q := question{ds: w.inputs[j%(len(w.inputs)-1)].id, seed: mix(w.cfg.seed, uint64(2<<40+j)), k: w.sz.mixK}
		fr, job, err := e.fitCold(rec, q)
		if err != nil {
			return err
		}
		w.last = warmFit{q, fr, job}
		w.warm = append(w.warm, w.last)
		w.debits[q.ds]++
	}
	return nil
}

func (w *mixWorkload) measure(e *env, rec *recorder, seconds float64) {
	var next atomic.Int64
	start := time.Now()
	rec.window(func() {
		var wg sync.WaitGroup
		for c := 0; c < runtime.NumCPU(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i > 0 && time.Since(start).Seconds() >= seconds {
						return
					}
					rec.op(func() error { return w.op(e, rec, uint64(i)) })
				}
			}()
		}
		wg.Wait()
	})
}

// slot maps operation i to a share in percent, 0 ≤ u < 100, that
// the op switch reads like a uniform draw: operation i's place in a
// seed-shuffled block holding each share's exact count of slots.
// Operation 0 is a new question.
func (w *mixWorkload) slot(i uint64) uint64 {
	var block [mixBlock]uint64
	for j := range block {
		block[j] = uint64(j) * 100 / mixBlock
	}
	r := mix(w.cfg.seed, 7<<40+i/mixBlock)
	for j := mixBlock - 1; j > 0; j-- {
		r = mix(r, uint64(j))
		k := r % uint64(j+1)
		block[j], block[k] = block[k], block[j]
	}
	if i < mixBlock {
		for j := range block {
			if block[j] < shareNew {
				block[0], block[j] = block[j], block[0]
				break
			}
		}
	}
	return block[i%mixBlock]
}

// op runs operation i of the mix. Operation 0 is always a new question
// on dataset 0 whose release must equal the direct reference.
func (w *mixWorkload) op(e *env, rec *recorder, i uint64) error {
	h := mix(w.cfg.seed, 3<<40+i)
	pick := h >> 8
	normal := w.inputs[:len(w.inputs)-1]
	switch u := w.slot(i); {
	case u < shareNew:
		ds, seed := normal[pick%uint64(len(normal))], mix(w.cfg.seed, 4<<40+i)
		if i == 0 {
			ds, seed = w.inputs[0], w.inputs[0].seed
		}
		q := question{ds: ds.id, seed: seed, k: w.sz.mixK}
		fr, job, err := e.fitCold(rec, q)
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.debits[q.ds]++
		w.last = warmFit{q, fr, job}
		w.mu.Unlock()
		if i == 0 {
			return sameRelease(fr, w.ref)
		}
		return nil
	case u < shareNew+shareRepeat:
		wf := w.warm[pick%uint64(len(w.warm))]
		return e.fitCached(rec, wf.q, wf.fr)
	case u < shareNew+shareRepeat+shareRead:
		switch pick % 3 {
		case 0:
			w.mu.Lock()
			last := w.last
			w.mu.Unlock()
			return e.readJob(rec, last.job, last.fr)
		case 1:
			ds := w.inputs[(pick>>8)%uint64(len(w.inputs))].id
			return e.readBudget(rec, ds, ds == w.exhausted())
		default:
			wf := w.warm[(pick>>8)%uint64(len(w.warm))]
			return e.readRelease(rec, wf.q.fingerprint(e.planned), wf.fr)
		}
	case u < shareNew+shareRepeat+shareRead+shareGenerate:
		return e.generate(rec, genModel{theta, w.sz.genK}, mix(w.cfg.seed, 5<<40+i))
	default:
		return e.fitRefused(rec, question{ds: w.exhausted(), seed: mix(w.cfg.seed, 6<<40+i), k: w.sz.mixK})
	}
}

// verify checks every account's spend is its preload plus exactly the
// accepted debits: all debits are the same receipt, so the folded sum
// is the same whatever order they landed in.
func (w *mixWorkload) verify(e *env) error {
	var bad []string
	for i, in := range w.inputs {
		want, receipts := dp.Budget{}, w.debits[in.id]
		if i == 0 {
			want, receipts = w.preSpent, receipts+w.sz.preload
		}
		for n := 0; n < w.debits[in.id]; n++ {
			want = dp.Compose(want, e.planned.Total)
		}
		acct, _ := e.ledger.Account(in.id)
		if acct.Spent != want || len(acct.Receipts) != receipts {
			bad = append(bad, fmt.Sprintf("%s spent %v in %d receipts, want %v in %d", in.id, acct.Spent, len(acct.Receipts), want, receipts))
		}
	}
	if bad != nil {
		return fmt.Errorf("ledger: %s", strings.Join(bad, "; "))
	}
	return nil
}

func (w *mixWorkload) setupRuns() int { return w.sz.setups }

// chunk is two blocks of the schedule, about a second of a run.
func (w *mixWorkload) chunk() int { return 2 * mixBlock }

func (w *mixWorkload) layerInput() (*input, question, *core.Result) {
	return w.inputs[0], w.warm[0].q, w.ref
}
