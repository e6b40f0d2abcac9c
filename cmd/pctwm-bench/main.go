// Command pctwm-bench prints the full strategy × benchmark hit-rate
// matrix with Wilson confidence intervals — the quick overview of how the
// algorithms compare on the paper's suite.
//
// Usage:
//
//	pctwm-bench [-runs N] [-s SEED] [-workers N] [-d D] [-y H] [-bench a,b]
//	            [-repro-dir DIR [-max-repros N]]
//	            [-checkpoint-dir DIR [-checkpoint-every N]] [-resume DIR]
//	            [-metrics-addr ADDR] [-pprof-addr ADDR] [-progress] [-telemetry]
//	            [-coverage]
//
// -workers spreads each cell's rounds over N worker goroutines (0 =
// GOMAXPROCS, 1 = serial; results are identical for every worker count).
// -telemetry collects per-cell engine counters (op mix, handoff ratio,
// rf candidate-bag sizes, change-point depths) and prints a summary per
// cell to stderr. -metrics-addr serves live campaign metrics (Prometheus on
// /metrics, JSON on /metrics.json, expvar on /debug/vars); -pprof-addr
// serves net/http/pprof (workers run under pprof labels); -progress
// prints a periodic one-line status to stderr.
// -coverage fingerprints every complete trial's behavior
// (internal/coverage) and prints a per-cell saturation digest to stderr
// — distinct behaviors, the Good–Turing estimate of the unseen mass,
// the Chao1 richness bound, and the trial index of the last novelty;
// with -progress the live status line gains `behaviors=N est_unseen=p%`,
// and with -metrics-addr the endpoint exports
// pctwm_coverage_behaviors_total and pctwm_coverage_unseen_mass. With
// -coverage the repro sink also dedupes by behavior: the -max-repros
// budget is spent on distinct behavior fingerprints, not raw failures.
// -repro-dir arms the campaign repro sink: the first -max-repros failing
// trials per cell are flake-triaged and written as replayable JSON
// bundles under DIR (see pctwm-replay). Engine cost is measured by the
// repo benchmark in perfbench/, not here.
//
// -checkpoint-dir arms the durable checkpoint layer: each benchmark ×
// strategy cell periodically (every -checkpoint-every trials) writes an
// atomic, checksummed snapshot of its cumulative state under DIR. After
// a crash or kill -9, `pctwm-bench -resume DIR` (same flags otherwise)
// reloads the newest good generation of every cell and continues,
// finishing with totals bit-identical to an uninterrupted run at any
// worker count. If the directory becomes unwritable mid-campaign the run
// keeps going, logs once, and the summary line is marked
// "durability: degraded".
//
// SIGINT/SIGTERM interrupt the run gracefully: in-flight trials are
// aborted through the engine's cooperative cancellation, the partial
// results measured so far are flushed (the summary line is marked
// "interrupted: partial results"), and the process exits nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/telemetry"
)

func main() {
	var (
		runs        = flag.Int("runs", 500, "rounds per strategy per benchmark")
		seed        = flag.Int64("s", 1, "base random seed")
		workers     = flag.Int("workers", 1, "worker goroutines per cell (0 = GOMAXPROCS, 1 = serial)")
		depth       = flag.Int("d", -1, "bug depth override (-1 = each benchmark's design depth)")
		history     = flag.Int("y", 1, "history depth for PCTWM")
		benchSel    = flag.String("bench", "", "comma-separated benchmark names (default: all)")
		reproDir    = flag.String("repro-dir", "", "write replayable repro bundles for failing trials under this directory")
		maxRepros   = flag.Int("max-repros", 3, "with -repro-dir: cap triaged bundles per benchmark × strategy cell")
		ckptDir     = flag.String("checkpoint-dir", "", "write periodic durable campaign checkpoints under this directory")
		ckptEvery   = flag.Int("checkpoint-every", harness.DefaultCheckpointEvery, "checkpoint cadence in trials per cell")
		resumeDir   = flag.String("resume", "", "resume a checkpointed campaign from this directory (implies -checkpoint-dir)")
		metricsAddr = flag.String("metrics-addr", "", "serve campaign metrics on this address (/metrics Prometheus, /metrics.json, /debug/vars)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address")
		progress    = flag.Bool("progress", false, "print a periodic one-line campaign status to stderr")
		telFlag     = flag.Bool("telemetry", false, "collect engine counters per cell (stderr summary)")
		covFlag     = flag.Bool("coverage", false, "fingerprint each trial's behavior and report per-cell coverage/saturation (implies telemetry collection)")
		model       = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso")
	)
	flag.Parse()
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-bench: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}

	// -resume is -checkpoint-dir plus loading whatever good generations
	// already exist; both at once must agree on the directory.
	var spec *harness.CheckpointSpec
	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			fmt.Fprintf(os.Stderr, "pctwm-bench: -resume %s conflicts with -checkpoint-dir %s\n", *resumeDir, *ckptDir)
			os.Exit(2)
		}
		*ckptDir = *resumeDir
	}
	if *ckptDir != "" {
		spec = &harness.CheckpointSpec{
			Dir:    *ckptDir,
			Every:  *ckptEvery,
			Resume: *resumeDir != "",
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pctwm-bench: "+format+"\n", args...)
			},
		}
	}

	// Graceful interruption: the first SIGINT/SIGTERM cancels the context
	// (draining workers and flushing partial results); a second signal
	// kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One metrics hub for the process; the HTTP endpoint and the progress
	// reporter read it while the campaigns feed it.
	var metrics *telemetry.Metrics
	if *metricsAddr != "" || *progress {
		metrics = &telemetry.Metrics{}
	}
	if *metricsAddr != "" {
		bound, stopSrv, err := metrics.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-bench: metrics endpoint: %v\n", err)
			os.Exit(2)
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "pctwm-bench: serving metrics on http://%s/metrics\n", bound)
	}
	if *pprofAddr != "" {
		bound, stopSrv, err := telemetry.ListenAndServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-bench: pprof endpoint: %v\n", err)
			os.Exit(2)
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "pctwm-bench: serving pprof on http://%s/debug/pprof/\n", bound)
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = telemetry.StartProgress(os.Stderr, metrics, 2*time.Second)
	}
	defer stopProgress()

	dFor := func(b *benchprog.Benchmark) int {
		if *depth >= 0 {
			return *depth
		}
		return b.Depth
	}

	benches := benchprog.All()
	if *benchSel != "" {
		benches = benches[:0]
		for _, name := range strings.Split(*benchSel, ",") {
			b, err := benchprog.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "pctwm-bench: %v\n", err)
				os.Exit(2)
			}
			benches = append(benches, b)
		}
	}

	type column struct {
		name    string
		factory func(b *benchprog.Benchmark) harness.StrategyFactory
	}
	cols := []column{
		{"c11tester", func(*benchprog.Benchmark) harness.StrategyFactory { return harness.C11Tester() }},
		{"pos", func(*benchprog.Benchmark) harness.StrategyFactory { return harness.POSFactory() }},
		{"pct", func(b *benchprog.Benchmark) harness.StrategyFactory {
			d := dFor(b)
			if d < 1 {
				d = 1
			}
			return harness.PCTFactory(d)
		}},
		{"pctwm", func(b *benchprog.Benchmark) harness.StrategyFactory {
			return harness.PCTWMFactory(dFor(b), *history)
		}},
	}

	start := time.Now()
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	header := "Benchmark\td"
	for _, c := range cols {
		header += "\t" + c.name
	}
	fmt.Fprintln(tw, header)
	interrupted := false
	bundles := 0
	for _, b := range benches {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		prog := b.Program(0)
		opts := b.Options()
		opts.Model = *model
		// RunCampaign arms the accumulator from Campaign.Coverage anyway;
		// setting it here keeps the EstimateParams probe on the options
		// the campaign runs with.
		opts.Coverage = *covFlag
		est := harness.EstimateParams(prog, 20, *seed^0x5eed, opts)
		row := fmt.Sprintf("%s\t%d", b.Name, dFor(b))
		if metrics != nil {
			metrics.SetPhase(b.Name)
		}
		for i, c := range cols {
			factory := c.factory(b)
			newStrategy := func() engine.Strategy { return factory(est) }
			camp := harness.Campaign{
				Workers: *workers, Context: ctx,
				ReproDir: *reproDir, MaxRepros: *maxRepros,
				Metrics: metrics, Telemetry: *telFlag, Coverage: *covFlag,
				Checkpoint: spec, CheckpointCell: b.Name + "/" + c.name,
			}
			res := harness.RunCampaign(prog, b.Detect, newStrategy, *runs, *seed+int64(10*i), opts, camp)
			bundles += reportFailures(b.Name, c.name, res)
			if *telFlag && res.Telemetry != nil {
				reportTelemetry(b.Name, c.name, res.Telemetry)
			}
			if *covFlag && res.Coverage != nil {
				reportCoverage(b.Name, c.name, res.Coverage)
			}
			interrupted = interrupted || res.Interrupted
			lo, hi := res.CI95()
			row += fmt.Sprintf("\t%.1f [%.0f,%.0f]", res.Rate(), lo, hi)
		}
		fmt.Fprintln(tw, row)
		if interrupted {
			break
		}
	}
	tw.Flush()
	stopProgress()
	if bundles > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %d repro bundle(s) written under %s (replay with pctwm-replay)\n", bundles, *reproDir)
	}
	durability := ""
	if spec != nil && spec.Degraded() {
		durability = ", durability: degraded"
	}
	if interrupted {
		fmt.Printf("(interrupted: partial results, %d rounds per completed cell, %v total%s)\n", *runs, time.Since(start).Round(time.Millisecond), durability)
		os.Exit(1)
	}
	fmt.Printf("(%d rounds per cell, %v total%s)\n", *runs, time.Since(start).Round(time.Millisecond), durability)
}

// reportFailures prints the campaign's captured failures (repro bundles +
// triage verdicts) to stderr and returns how many bundles were written.
func reportFailures(bench, strategy string, res harness.TrialResult) int {
	n := 0
	for _, f := range res.Failures {
		if f.BundlePath != "" {
			n++
		}
		fmt.Fprintf(os.Stderr, "pctwm-bench: %s/%s seed %d: %s (%s, triage %s) -> %s\n",
			bench, strategy, f.Seed, f.Kind, f.Msg, f.Triage, f.BundlePath)
	}
	if res.Nondeterministic > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: WARNING: %s/%s: %d failure(s) did not reproduce on re-run — determinism bug?\n",
			bench, strategy, res.Nondeterministic)
	}
	if res.Panics > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: WARNING: %s/%s: %d trial(s) panicked outside the engine (quarantined)\n",
			bench, strategy, res.Panics)
	}
	return n
}

// reportCoverage prints one cell's behavior-coverage digest to stderr.
// The set is merged deterministically, so the numbers are identical for
// every -workers setting and across kill/-resume boundaries.
func reportCoverage(bench, strategy string, set *coverage.Set) {
	st := set.Stats()
	fmt.Fprintf(os.Stderr,
		"pctwm-bench: coverage %s/%s: %d behavior(s) in %d trial(s), est_unseen %.2f%%, chao1 %.1f, last novel at trial %d\n",
		bench, strategy, st.Behaviors, st.Observations, 100*st.UnseenMass, st.Chao1, st.LastNovel)
}

// reportTelemetry prints one cell's merged engine-counter digest to
// stderr (identical totals for every -workers setting).
func reportTelemetry(bench, strategy string, c *telemetry.EngineCounters) {
	s := c.Summary()
	grants := s.Handoffs + s.SameThreadGrants
	handoffPct := 0.0
	if grants > 0 {
		handoffPct = 100 * float64(s.Handoffs) / float64(grants)
	}
	fmt.Fprintf(os.Stderr,
		"pctwm-bench: telemetry %s/%s: trials %d, events %d, handoffs %.1f%%, rf-cand mean %.1f max %d, cp-depth mean %.1f max %d, race checks %d\n",
		bench, strategy, s.Trials, s.Events, handoffPct,
		s.RFCandidates.Mean, s.RFCandidates.Max,
		s.ChangePointDepth.Mean, s.ChangePointDepth.Max, s.RaceChecks)
}
