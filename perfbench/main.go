// Command perfbench is the repository benchmark: it drives the information
// slicing overlay through its public packages (relay, core, source, overlay,
// simnet) on four workloads, verifies every delivered message byte for
// byte, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload small-udp --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (run.sh builds it there); --workload all
// runs every workload in one process and prints one report per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying value of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports. Metrics holds exactly the names
// the run's mode promises (end-to-end or per-layer); Extra holds
// workload-specific figures that are printed in the report lines only.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	extra map[string]metric
	notes []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, extra: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
func (r *result) note(format string, a ...any)            { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// workloads maps each workload name to its runner. A runner measures for
// the given duration and fills the result for the requested mode.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"bulk-tcp":   runBulkTCP,
	"small-udp":  runSmallUDP,
	"flow-churn": runFlowChurn,
	"churn-sim":  runChurnSim,
}

var workloadOrder = []string{"bulk-tcp", "small-udp", "flow-churn", "churn-sim"}

// runConfig is the command line as the runners see it.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string // where traced runs write their span files
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
		return code
	}
	if err := checkEnvironment(); err != nil {
		return fail(2, "%v", err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(2, "--seconds must be >= 1 and --trace 0 or 1")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, name := range names {
		if workloads[name] == nil {
			return fail(2, "unknown workload %q", name)
		}
	}
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	meta := describeHost(*seed)
	code := 0
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: outDir}
		res, err := workloads[name](cfg)
		if err != nil {
			return fail(1, "%s: %v", name, err)
		}
		printReport(name, *trace == 1, meta, res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// checkEnvironment refuses a run whose numbers would not mean what they
// say: more runnable Go threads than CPUs turns every latency into
// scheduler noise.
func checkEnvironment() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; results would not be meaningful", p, n)
	}
	return nil
}

// printReport writes the human-readable lines (host, every metric by name
// and unit, workload-specific figures, notes) and then the JSON result as
// the last line of standard output.
func printReport(name string, traced bool, meta []string, r *result) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# workload %s, %s\n", name, mode)
	for _, m := range meta {
		fmt.Printf("#   %s\n", m)
	}
	printMetrics := func(ms map[string]metric) {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	printMetrics(r.Metrics)
	if len(r.extra) > 0 {
		fmt.Println("# workload-specific")
		printMetrics(r.extra)
	}
	for _, n := range r.notes {
		fmt.Printf("# note: %s\n", n)
	}
	fmt.Printf("# attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
