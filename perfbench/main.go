// Command perfbench is the repository's benchmark. It runs one workload
// (campaign, apps or explore) for a fixed wall time, checks the outputs,
// and prints the end-to-end metrics; with -trace 1 it instead runs the
// workload traced, measures the per-layer ladder, and prints the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host identifies where a result was measured; results compare only on
// the same host.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set size in MiB
// (VmHWM; unlike getrusage's maxrss it is not inherited from the parent
// that started the process).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return 0
}

// workers is the worker count of every parallel layer: one per CPU, never
// more than the scheduler runs at once.
func workers() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// report collects metrics, failed operations and failed checks.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	// known are engine defects the checks find and report without
	// failing the run (see knownGaps).
	known []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check; every failed check also counts as
// a failed operation.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// checks records n checks made, of which the given problems failed.
func (r *report) checks(n int, problems []string) {
	r.attempted += int64(n)
	for _, p := range problems {
		r.fail("%s", p)
	}
}

// merge adds another workload's report under its name.
func (r *report) merge(prefix string, o *report) {
	for k, m := range o.metrics {
		r.metrics[prefix+"."+k] = m
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
	r.known = append(r.known, o.known...)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: campaign, apps or explore")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured wall time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload campaign|apps|explore|all -seed N -seconds S -trace 0|1\n")
		return 2
	}
	// Results and traces go under the build directory, which git ignores.
	outDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	h := host{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
		Workload: *name, Seed: *seed, Trace: *trace == 1,
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d workers=%d\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Workload, h.Seed, workers())

	budget := time.Duration(*seconds * float64(time.Second))
	rep := newReport()
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	for _, n := range names {
		// With -workload all, each workload's metrics are prefixed with its
		// name, so the three share one result.
		r := rep
		if len(names) > 1 {
			fmt.Printf("== workload %s\n", n)
			r = newReport()
		}
		if tr != nil {
			traced(workloads[n], *seed, scratch, budget, tr, r)
		} else {
			untraced(workloads[n], *seed, scratch, budget, r)
		}
		if r != rep {
			rep.merge(n, r)
		}
	}

	for _, p := range rep.known {
		fmt.Printf("KNOWN DEFECT: %s\n", p)
	}
	for _, p := range rep.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)
	if tr != nil {
		path := filepath.Join(outDir, "trace-"+base+".json")
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", path)
	}
	doc, err := json.MarshalIndent(struct {
		Host   host     `json:"host"`
		Result result   `json:"result"`
		Checks []string `json:"failed_checks"`
		Known  []string `json:"known_defects"`
	}{h, res, rep.problems, rep.known}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result-"+base+".json"), doc, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	os.Stdout.Write(append(line, '\n'))
	if !res.Correct {
		return 1
	}
	return 0
}
