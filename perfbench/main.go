// Command perfbench is the repository's benchmark: the paper's graph
// applications over each communication layer, the small-message rate of
// the LCI queue and MPI probe paths, and the serving layer under an
// open-loop query load. It measures end to end with tracing off, and layer
// by layer in a separate traced run (README.md).
//
//	perfbench --workload bsp-sim-lci --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // where a traced run writes its spans ("" = nowhere)
	small   bool   // tiny inputs, for the benchmark's own tests
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	wrong             int64 // operations whose output disagreed with the oracle
	e2e               map[string]float64
	layer             map[string]float64
	counts            map[string]int // samples behind each end-to-end metric
	stealPct          float64        // machine time stolen by the hypervisor during the run
	notes             []string       // human-readable lines printed before the result
}

func newResult() *result {
	return &result{
		e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int{},
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setE2E records an end-to-end metric and the number of samples behind it.
func (r *result) setE2E(name string, value float64, n int) {
	r.e2e[name] = value
	r.counts[name] = n
}

type workload struct {
	name string
	run  func(rc runConfig) (*result, error)
}

// workloads in BENCHMARK.json order; README.md says why each was chosen.
// Each communication layer and message path is a workload of its own, so
// that its end-to-end metrics cover that layer alone and no other layer's
// progress loop runs beside it.
var workloads = []workload{
	{"bsp-sim-lci", bspWorkload("sim", layerLCI, true)},
	{"bsp-sim-mpi-probe", bspWorkload("sim", layerProbe, true)},
	{"bsp-sim-mpi-rma", bspWorkload("sim", layerRMA, false)},
	{"bsp-udp-lci", bspWorkload("udp", layerLCI, false)},
	{"bsp-udp-mpi-probe", bspWorkload("udp", layerProbe, false)},
	{"msgrate-queue", msgrateWorkload(pathQueue)},
	{"msgrate-probe", msgrateWorkload(pathProbe)},
	{"serve-udp", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload, one of those listed in BENCHMARK.json")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured time")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", "", "also write the full result (fingerprint, samples) to this JSON file")
	spans := flag.String("spans", "", "traced runs write their spans to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two sides of -out files given as arguments (each a comma-separated list)")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	fp := fingerprint()
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	steal0, total0 := cpuTicks()
	res, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	steal1, total1 := cpuTicks()
	// On a VM, time the hypervisor gave to other guests slows every
	// workload; it is recorded so that a slow run can be told from a slow
	// program.
	res.stealPct = 100 * ratio(steal1-steal0, total1-total0)
	res.notef("cpu steal during the run: %.1f%% of machine time", res.stealPct)
	doc, err := report(w.name, rc, fp, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	line, _ := json.Marshal(doc.Result)
	fmt.Println(string(line))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is the -out file: the result line plus what is needed to judge
// it against another run.
type document struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Trace       bool           `json:"trace"`
	Time        string         `json:"time"`
	Fingerprint Fingerprint    `json:"fingerprint"`
	Result      resultLine     `json:"result"`
	Samples     map[string]int `json:"samples,omitempty"`
	StealPct    float64        `json:"cpu_steal_pct"`
}

// report builds the output for one run, checking that every metric the
// mode promises is present.
func report(name string, rc runConfig, fp Fingerprint, res *result) (document, error) {
	line := resultLine{
		Correct:   res.wrong == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.attempted < 1 {
		return document{}, fmt.Errorf("no operation was attempted")
	}
	doc := document{Workload: name, Seed: rc.seed, Trace: rc.trace,
		Time: time.Now().UTC().Format(time.RFC3339), Fingerprint: fp, StealPct: res.stealPct}
	// JSON has no infinity: a latency percentile that fell on a failed
	// operation (+Inf) makes the run fail instead.
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	if rc.trace {
		for _, m := range perLayer {
			v := res.layer[m.name]
			if !finite(v) {
				return document{}, fmt.Errorf("per-layer metric %s is %v", m.name, v)
			}
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := res.e2e[m.name]
			if !ok || v <= 0 || !finite(v) {
				return document{}, fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
			}
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
		doc.Samples = res.counts
	}
	doc.Result = line
	return doc, nil
}

// runCompare compares two sides, each a comma-separated list of -out files
// of one workload (runs on several seeds, say): per metric it prints each
// side's median and quartiles over its runs and the change of the median.
// It refuses when the fingerprints differ.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two sides, each a comma-separated list of result files")
		return 2
	}
	var sides [2][]document
	for i, list := range args {
		for _, p := range strings.Split(list, ",") {
			var d document
			b, err := os.ReadFile(p)
			if err == nil {
				err = json.Unmarshal(b, &d)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
				return 2
			}
			sides[i] = append(sides[i], d)
		}
	}
	ref := sides[0][0]
	for _, side := range sides {
		for _, d := range side {
			if d.Workload != ref.Workload || d.Trace != ref.Trace {
				fmt.Fprintf(os.Stderr, "perfbench: %s (trace %v) vs %s (trace %v): not the same measurement\n",
					ref.Workload, ref.Trace, d.Workload, d.Trace)
				return 3
			}
			if diffs := ref.Fingerprint.diff(d.Fingerprint); len(diffs) > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: refusing to compare, fingerprints differ: %s\n",
					strings.Join(diffs, "; "))
				return 3
			}
		}
	}
	names := make([]string, 0, len(ref.Result.Metrics))
	for n := range ref.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %26s %26s %9s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change")
	for _, n := range names {
		var cols [2]string
		var meds [2]float64
		for i, side := range sides {
			var xs []float64
			for _, d := range side {
				xs = append(xs, d.Result.Metrics[n].Value)
			}
			meds[i] = median(xs)
			cols[i] = fmt.Sprintf("%.4g [%.4g, %.4g]", meds[i], quantile(xs, 0.25), quantile(xs, 0.75))
		}
		change := "-"
		if meds[0] != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(meds[1]-meds[0])/meds[0])
		}
		fmt.Printf("%-34s %26s %26s %9s\n", n, cols[0], cols[1], change)
	}
	fmt.Printf("A: %d runs, B: %d runs of %s (trace %v)\n", len(sides[0]), len(sides[1]), ref.Workload, ref.Trace)
	return 0
}
