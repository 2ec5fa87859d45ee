// Command perfbench is the repository's end-to-end benchmark. One run takes a
// workload name and a seed, generates that workload's inputs from the seed,
// drives the program's layers in-process for a fixed time, checks every
// answer, and prints one JSON object as its last line of output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones (endToEnd below); with
// -trace 1 the run records spans around each layer call and reports the
// per-layer metrics (perLayer below). The process exits non-zero when an
// answer is wrong or the workload cannot run. perfbench/README.md lists the
// workloads, what each metric means, and the known defects the workloads
// step around.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"ksettop/internal/obs"
)

// setupRepeats is how many times one run sets its workload up (each in a
// fresh process, so every repeat starts with cold caches); setup_s is the
// median.
const setupRepeats = 3

// A metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer lists the metrics every traced run reports. A workload that does
// not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"obs.trace_overhead_share", "share"},
	// The operation's 95th percentile time, as p50_ms is its median. It is
	// not an end-to-end metric because on a shared 2-vCPU machine it moved
	// with the host's bursts: up to 2× between runs of one workload.
	{"op.p95_ms", "ms"},
	// bounds-service
	{"loadgen.late_p99_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"serve.queue_p99_ms", "ms"},
	{"serve.capacity_nproc_rps", "1/s"},
	{"serve.shared_share", "share"},
	{"serve.fail_share", "share"},
	{"model.parse_build_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.multiround_ms", "ms"},
	{"model.count_ms", "ms"},
	{"memo.hit_ratio", "share"},
	{"memo.evictions", "count"},
	// verify-batch
	{"verify.refute_s", "s"},
	{"verify.witness_s", "s"},
	{"verify.betti_s", "s"},
	{"model.all_graphs_s", "s"},
	{"solver.tables_s", "s"},
	{"solver.probe_s", "s"},
	{"solver.decompose_s", "s"},
	{"solver.sweep_s", "s"},
	{"solver.nodes", "count"},
	{"solver.tasks", "count"},
	{"solver.nogoods", "count"},
	{"topology.complex_s", "s"},
	{"topology.abstract_s", "s"},
	{"homology.reduce_s", "s"},
	{"homology.simplices", "count"},
	{"homology.columns_reduced", "count"},
	{"homology.apparent_pairs", "count"},
	{"par.shards", "count"},
	{"par.shard_wait_s", "s"},
	{"par.deque_tasks", "count"},
	{"par.speedup.solver_tables", "x"},
	{"par.speedup.topology", "x"},
	{"par.speedup.homology", "x"},
	// fleet-sweep
	{"dist.count_p50_ms", "ms"},
	{"dist.enum_p50_ms", "ms"},
	{"dist.local_ms", "ms"},
	{"dist.overhead_ratio", "x"},
	{"dist.worker_exec_ms", "ms"},
	{"dist.grants", "count"},
	{"dist.retries", "count"},
	{"dist.hedges", "count"},
	{"dist.hedge_waste_share", "share"},
	{"dist.lease_expiries", "count"},
	{"dist.payload_bytes", "bytes"},
}

// outcome is what one measured workload run produced.
type outcome struct {
	attempted, failed int64
	// wrong lists every answer the checks rejected; any entry fails the run.
	wrong   []string
	metrics map[string]float64
}

// workload is one benchmark workload. setup builds its inputs, starts
// whatever serves them and warms up; measure and traced run the timed phases
// and then check every answer.
type workload interface {
	setup(seed int64) error
	measure(d time.Duration) (*outcome, error)
	traced(d time.Duration) (*outcome, error)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "bounds-service":
		return &boundsService{}, nil
	case "verify-batch":
		return &verifyBatch{}, nil
	case "fleet-sweep":
		return &fleetSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want bounds-service, verify-batch or fleet-sweep)", name)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "bounds-service | verify-batch | fleet-sweep")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print the set-up time, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d must be ≥ 1", *seconds)
	}
	// Only the program's error lines reach stderr; stdout is the report.
	obs.SetDefaultLogger(obs.NewLogger(os.Stderr, obs.LevelError))

	w, err := newWorkload(*name)
	if err != nil {
		return err
	}
	defer w.close()
	if *setupOnly {
		start := time.Now()
		if err := w.setup(*seed); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout, time.Since(start).Seconds())
		return err
	}

	var setups []float64
	if *trace == 0 {
		for i := 1; i < setupRepeats; i++ {
			s, err := setupInChild(*name, *seed)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	start := time.Now()
	if err := w.setup(*seed); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, time.Since(start).Seconds())

	d := time.Duration(*seconds) * time.Second
	defs := endToEnd
	var out *outcome
	if *trace == 0 {
		out, err = w.measure(d)
	} else {
		defs = perLayer
		out, err = w.traced(d)
	}
	if err != nil {
		return err
	}
	out.metrics["setup_s"] = median(setups)

	rep := report{Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, def := range defs {
		rep.Metrics[def.name] = jsonMetric{Value: out.metrics[def.name], Unit: def.unit}
	}
	for i, msg := range out.wrong {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "wrong: … %d more\n", len(out.wrong)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "wrong:", msg)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%d wrong answers", len(out.wrong))
	}
	return nil
}

// setupInChild sets the workload up in a fresh copy of this process and
// returns the set-up time it measured.
func setupInChild(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-setup-only")
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("setup in child process: %w", err)
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(buf.Bytes())), 64)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm returns the mean of the middle half of xs.
func iqm(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
