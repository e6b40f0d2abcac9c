package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

// endToEndMetrics lists every metric of an untraced run, in print order;
// BENCHMARK.json's end_to_end list names the same set.
var endToEndMetrics = []string{"setup_s", "trials_per_ref_s", "events_per_ref_s", "pass_ref_s", "hit_pct", "peak_rss_mb"}

// setupReps is how often a run sets its workload up; setup_s is the
// median, so one slow first-touch does not decide it.
const setupReps = 15

// minPasses is the fewest measured passes a run makes, however short its
// time budget.
const minPasses = 3

// workload is one benchmark workload. A pass runs the workload's whole
// input set once; the workload is measured by repeating passes, each
// worker starting its next trial as soon as its previous one ends.
type workload interface {
	// setup builds the inputs from seed. It is called setupReps times;
	// the last set-up is the one measured.
	setup(seed int64, scratch string) error
	// check runs the output checks that need their own runs.
	check(rep *report)
	// pass runs the input set once, checks its outputs into rep, and
	// returns what it did. tr, when non-nil, receives spans under parent.
	pass(tr *tracer, parent int, rep *report) passStats
	// describe prints the workload's own figures for the measured passes.
	describe(m measured)
	// ladder returns the programs the per-layer ladder runs.
	ladder() []ladderProg
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"campaign", "apps", "explore"}

var workloads = map[string]func() workload{
	"campaign": func() workload { return &campaignWL{} },
	"apps":     func() workload { return &appsWL{} },
	"explore":  func() workload { return &exploreWL{} },
}

// interval is a measured stretch of work: its wall time, the CPU time
// the whole process spent in it, and the core time the workers had: wall
// time × workers, less the time the hypervisor stole from their CPUs.
// Core time counts every moment a worker waits or idles; only stolen
// time is left out.
type interval struct{ wall, cpu, core time.Duration }

// stopwatch measures an interval from its start.
type stopwatch struct {
	t0         time.Time
	cpu, steal time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime(), stealTime()} }

func (s stopwatch) stop() interval {
	wall := time.Since(s.t0)
	n := time.Duration(workers())
	// Steal is counted over all CPUs; the workers run on n of them.
	stolen := (stealTime() - s.steal) * n / time.Duration(runtime.NumCPU())
	core := wall*n - stolen
	if core <= 0 { // steal is counted in 10 ms ticks, so a short interval can overshoot
		core = wall * n
	}
	return interval{wall: wall, cpu: cpuTime() - s.cpu, core: core}
}

// cpuTime returns the user and system CPU time of the process so far. On
// a virtual machine it excludes time stolen by the host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the time the hypervisor has stolen from all CPUs
// since boot: the steal column of /proc/stat, in ticks of 1/100 s
// (USER_HZ, 100 on every Linux architecture Go supports). Without
// /proc/stat it returns 0, and core time is plain wall time × workers.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// passStats is what one pass did.
type passStats struct {
	ops    int64         // trials or explored executions
	events int64         // simulated memory events
	work   interval      // the pass's work, checks excluded
	unit   interval      // the part of the work reported as pass_ref_s
	ref    time.Duration // refKernel's time per worker right after the pass
	hitPct float64
	appOps int64    // application operations (apps)
	part   int64    // explore: executions of the capped benchprog part
	partT  interval // explore: the capped part
}

// measured holds the measured passes of a run.
type measured struct{ passes []passStats }

// rates returns count(pass) per second of per(pass) for every pass.
func (m *measured) rates(count func(passStats) int64, per func(passStats) time.Duration) []float64 {
	out := make([]float64, len(m.passes))
	for i, ps := range m.passes {
		out[i] = float64(count(ps)) / per(ps).Seconds()
	}
	return out
}

// rate returns the median of rates: a burst of host load that slows a
// few passes does not move it.
func (m *measured) rate(count func(passStats) int64, per func(passStats) time.Duration) float64 {
	return median(m.rates(count, per))
}

// series returns f over the passes, in seconds.
func (m *measured) series(f func(passStats) time.Duration) []float64 {
	out := make([]float64, len(m.passes))
	for i, ps := range m.passes {
		out[i] = f(ps).Seconds()
	}
	return out
}

func ops(ps passStats) int64              { return ps.ops }
func events(ps passStats) int64           { return ps.events }
func workWall(ps passStats) time.Duration { return ps.work.wall }
func workCPU(ps passStats) time.Duration  { return ps.work.cpu }
func workCore(ps passStats) time.Duration { return ps.work.core }
func workRef(ps passStats) time.Duration  { return toRef(ps.work.core, ps.ref) }

// measure repeats passes until budget has elapsed (at least minPasses).
// Every operation of a measured pass counts as attempted.
func measure(w workload, budget time.Duration, tr *tracer, parent int, rep *report) measured {
	var m measured
	start := time.Now()
	for len(m.passes) < minPasses || time.Since(start) < budget {
		ps := w.pass(tr, parent, rep)
		ps.ref = refKernel()
		rep.attempted += ps.ops
		m.passes = append(m.passes, ps)
	}
	return m
}

// untraced is the end-to-end run: set-up, checks, a warm-up pass, then
// the measured passes.
func untraced(newWL func() workload, seed int64, scratch string, budget time.Duration, rep *report) {
	w := newWL()
	var setupWall, setupCPU, setupRef, speed []float64
	for i := 0; i < setupReps; i++ {
		sw := startWatch()
		if err := w.setup(seed, scratch); err != nil {
			rep.fail("setup: %v", err)
			return
		}
		iv := sw.stop()
		ref := refKernel()
		setupWall = append(setupWall, iv.wall.Seconds())
		setupCPU = append(setupCPU, iv.cpu.Seconds())
		setupRef = append(setupRef, toRef(iv.cpu, ref).Seconds())
	}
	w.check(rep)
	rep.attempted += w.pass(nil, 0, rep).ops // warm-up: pools and caches fill before timing
	m := measure(w, budget, nil, 0, rep)

	unitRef := m.series(func(ps passStats) time.Duration { return toRef(ps.unit.core, ps.ref) })
	perPass := map[string][]float64{
		"setup_s":          setupRef,
		"trials_per_ref_s": m.rates(ops, workRef),
		"events_per_ref_s": m.rates(events, workRef),
		"pass_ref_s":       unitRef,
	}
	for _, ps := range m.passes {
		speed = append(speed, float64(refNominal)/float64(ps.ref))
	}
	rep.set("setup_s", "s", median(setupRef))
	rep.set("trials_per_ref_s", "1/s", median(perPass["trials_per_ref_s"]))
	rep.set("events_per_ref_s", "1/s", median(perPass["events_per_ref_s"]))
	rep.set("pass_ref_s", "s", median(unitRef))
	rep.set("hit_pct", "%", m.passes[0].hitPct)
	rep.set("peak_rss_mb", "MiB", peakRSSMiB())
	fmt.Printf("measured %d passes, %d workers\n", len(m.passes), workers())
	fmt.Printf("host speed: %s (refNominal ÷ reference kernel time; 1 = reference host)\n", describe(speed, "x"))
	fmt.Printf("setup cpu: %s\n", describe(setupCPU, "s"))
	fmt.Printf("setup wall: %s\n", describe(setupWall, "s"))
	fmt.Printf("pass unit core: %s\n", describe(m.series(func(ps passStats) time.Duration { return ps.unit.core }), "s"))
	fmt.Printf("pass unit wall: %s\n", describe(m.series(func(ps passStats) time.Duration { return ps.unit.wall }), "s"))
	fmt.Printf("wall-clock trials_per_s = %.6g 1/s\n", m.rate(ops, workWall))
	fmt.Printf("wall-clock events_per_s = %.6g 1/s\n", m.rate(events, workWall))
	fmt.Printf("core-time trials_per_core_s = %.6g 1/s\n", m.rate(ops, workCore))
	fmt.Printf("cpu-time trials_per_cpu_s = %.6g 1/s\n", m.rate(ops, workCPU))
	fmt.Printf("core share busy = %.4g%% (process cpu ÷ core time)\n",
		100*median(m.rates(func(ps passStats) int64 { return ps.work.cpu.Nanoseconds() }, workCore))/1e9)
	w.describe(m)
	for _, name := range []string{"setup_s", "trials_per_ref_s", "events_per_ref_s", "pass_ref_s"} {
		xs := perPass[name]
		fmt.Printf("spread %s = %.4f (quartile spread ÷ median over %d samples)\n", name, spread(xs), len(xs))
	}
	for _, name := range endToEndMetrics {
		fmt.Printf("metric %s = %.6g %s\n", name, rep.metrics[name].Value, rep.metrics[name].Unit)
	}
}

// traced is the per-layer run: the workload's passes alternately
// untraced and traced for 30% of the budget (their throughput ratio is the
// tracing overhead), then the layer ladder for 70%.
func traced(newWL func() workload, seed int64, scratch string, budget time.Duration, tr *tracer, rep *report) {
	w := newWL()
	if err := w.setup(seed, scratch); err != nil {
		rep.fail("setup: %v", err)
		return
	}
	w.check(rep)
	rep.attempted += w.pass(nil, 0, rep).ops
	// Untraced and traced passes alternate, so drift in the host's speed
	// hits both alike.
	var plain, withSpans measured
	root := tr.begin("workload", 0, 0)
	start := time.Now()
	for len(plain.passes) < minPasses || time.Since(start) < budget*30/100 {
		for _, t := range []*tracer{nil, tr} {
			ps := w.pass(t, root, rep)
			rep.attempted += ps.ops
			if t == nil {
				plain.passes = append(plain.passes, ps)
			} else {
				withSpans.passes = append(withSpans.passes, ps)
			}
		}
	}
	tr.end(root)
	rep.set("trace.overhead_pct", "%", (plain.rate(ops, workCore)/withSpans.rate(ops, workCore)-1)*100)

	l := newLadder(w.ladder(), seed, scratch, tr, rep)
	l.run(budget * 70 / 100)
	recorded, dropped := tr.count()
	rep.set("trace.spans", "count", float64(recorded))
	rep.set("trace.dropped_spans", "count", float64(dropped))
	for _, name := range perLayerMetrics {
		m, ok := rep.metrics[name]
		if !ok {
			rep.fail("per-layer metric %s was not measured", name)
			continue
		}
		fmt.Printf("metric %s = %.6g %s\n", name, m.Value, m.Unit)
	}
}

// ladderProg is one program of a workload as the ladder runs it.
type ladderProg struct {
	prog   *engine.Program
	opts   engine.Options // the workload's own options
	est    harness.Estimate
	detect func(*engine.Outcome) bool
	depth  int // PCT/PCTWM bug depth
}
