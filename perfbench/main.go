// Command perfbench is the repository benchmark. It starts a
// production-configured dpkron server in-process on a loopback listener
// (dataset store, privacy ledger, job journal, release cache and
// metrics registry on; tracing off; Workers = nproc), drives one
// workload against it from the same process, checks every output, and
// prints the metrics BENCHMARK.json names as one JSON object on the
// last line of standard output:
//
//	bash perfbench/run.sh --workload fit-dense --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics. With
// --trace 1 the untraced run is followed by a second run with per-job
// tracing on, and the object carries the per-layer metrics: span self
// times read back through GET /v1/jobs/{id}/trace, the benchmark's own
// timed calls into each layer's public function on the run's inputs and
// final state, Go runtime allocation counts, and the tracing overhead.
// README.md in this directory lists what each metric is expected to
// move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// The privacy question every fit asks. δ is small so that a long-lived
// account can hold thousands of receipts under a δ budget below 1.
const (
	fitEps   = 0.2
	fitDelta = 1e-6
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the checkout root; server state lives under
	// root/.bench_state and is removed when the run ends.
	root string
	// tiny selects test-sized inputs.
	tiny bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fit-dense, fit-sparse or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	root := fs.String("root", "..", "checkout root (state is kept under ROOT/.bench_state)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown --workload %q (want %s)", *workload, workloadNames())
	}
	if *seconds <= 0 {
		return config{}, errors.New("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return config{}, errors.New("--trace must be 0 or 1")
	}
	return config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, root: *root}, nil
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run executes one benchmark run and returns its result line. Human
// readable context (machine, inputs, sample counts, every percentile)
// goes to out first, one "# "-prefixed JSON line each.
func run(cfg config, out io.Writer) (*result, error) {
	state, err := filepath.Abs(filepath.Join(cfg.root, ".bench_state",
		cfg.workload+"-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(state)
	report(out, "machine", machineInfo(cfg, state))

	sz := sizesFor(cfg.tiny)
	w := workloads[cfg.workload](cfg, sz)
	inputs, err := timed(w.prepare)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	report(out, "inputs", map[string]any{"seconds": inputs, "graphs": w.describe()})

	plain, err := runPhase(cfg, w, filepath.Join(state, "plain"), false)
	if err != nil {
		return nil, err
	}
	plain.env.close()
	report(out, "run", plain.summary())
	res := &result{
		Attempted: plain.rec.attempted,
		Failed:    plain.rec.failed,
		Metrics:   endToEnd(plain),
	}
	if cfg.trace {
		traced, err := runPhase(cfg, w, filepath.Join(state, "traced"), true)
		if err != nil {
			return nil, err
		}
		layers, err := perLayer(cfg, sz, w, plain, traced)
		traced.env.close()
		if err != nil {
			return nil, err
		}
		report(out, "traced-run", traced.summary())
		res.Attempted += traced.rec.attempted
		res.Failed += traced.rec.failed
		res.Metrics = layers
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func report(out io.Writer, what string, v any) {
	b, err := json.Marshal(map[string]any{what: v})
	if err != nil {
		b = []byte(strconv.Quote(err.Error()))
	}
	fmt.Fprintf(out, "# %s\n", b)
}

// machineInfo records what the numbers depend on: core counts, CPU,
// Go version, the state directory's filesystem (fsync cost follows
// it), the commit when the checkout is a git work tree, and the seed.
func machineInfo(cfg config, state string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"state_fs":   fsType(state),
		"commit":     gitCommit(cfg.root),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
	}
}
