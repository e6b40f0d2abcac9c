package main

import (
	"fmt"
	"path"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

const (
	// campaignRuns is the trial count of one campaign cell: the
	// Table-1 size of the repository's experiment command
	// (pctwm-experiments), whose checkpoint cadence is
	// harness.DefaultCheckpointEvery, as here.
	campaignRuns = 1000
	// fixedRuns is the trial count of each fixed-variant check cell.
	fixedRuns = 200
)

type campaignBench struct {
	b           *benchprog.Benchmark
	prog, fixed *engine.Program
	opts        engine.Options
	est         harness.Estimate
}

func (cb *campaignBench) newStrategy(s strategyKind) func() engine.Strategy {
	f := s.factory(cb.b.Depth)
	return func() engine.Strategy { return f(cb.est) }
}

// campaignWL is the Table-1 hit-rate matrix run as a user runs it: nine
// benchmarks × three strategies through harness.RunCampaign with races
// on, StopOnBug, coverage, repro sink, checkpoints and a metrics hub.
type campaignWL struct {
	seed    int64
	benches []*campaignBench
	metrics *telemetry.Metrics
	hits    map[string]int // per cell, from the first pass
}

func (w *campaignWL) setup(seed int64, _ string) error {
	w.seed = seed
	w.benches = w.benches[:0]
	for _, b := range benchprog.All() {
		cb := &campaignBench{b: b, prog: b.Build(0), fixed: b.BuildFixed(), opts: b.Options()}
		cb.est = harness.EstimateParams(cb.prog, 20, seed^0x5eed, cb.opts)
		w.benches = append(w.benches, cb)
	}
	w.metrics = &telemetry.Metrics{}
	w.hits = nil
	return nil
}

func cellSeed(seed int64, strategy int) int64 { return seed + int64(10*strategy) }

// failedTrials counts the trials of a campaign that failed as operations:
// panics, timeouts, step-limit aborts, cancellations, nondeterministic
// triage, and trials lost to a stuck worker or otherwise missing.
func failedTrials(res harness.TrialResult, runs int) int64 {
	n := res.Panics + res.Timeouts + res.Aborted + res.Canceled + res.Nondeterministic
	if res.Runs < runs {
		n += runs - res.Runs
	}
	return int64(n)
}

func (w *campaignWL) pass(tr *tracer, parent int, rep *report) passStats {
	// Checkpoints and bundles go to a fresh in-memory filesystem each pass
	// (see memFS), as they would to a fresh temporary directory.
	fsys := newMemFS()
	spec := &harness.CheckpointSpec{Dir: "ckpt", FS: fsys} // Every 0: the default cadence
	first := w.hits == nil
	hits := make(map[string]int)
	var ps passStats
	var pctwmRate float64
	type cellRes struct {
		name string
		cb   *campaignBench
		res  harness.TrialResult
	}
	var cells []cellRes
	sw := startWatch()
	for _, cb := range w.benches {
		for si, s := range strategyKinds {
			cell := cb.b.Name + "/" + s.name
			newStrategy, done := traceCell(tr, parent, cb.newStrategy(s))
			camp := harness.Campaign{
				Workers: workers(), Coverage: true, Metrics: w.metrics,
				ReproDir:   path.Join("repro", cb.b.Name+"-"+s.name),
				Checkpoint: spec, CheckpointCell: cell,
			}
			res := harness.RunCampaign(cb.prog, cb.b.Detect, newStrategy, campaignRuns, cellSeed(w.seed, si), cb.opts, camp)
			done()
			ps.ops += int64(res.Runs)
			ps.events += int64(res.TotalEvents)
			rep.failed += failedTrials(res, campaignRuns)
			hits[cell] = res.Hits
			if s.name == "pctwm" {
				pctwmRate += res.Rate()
			}
			cells = append(cells, cellRes{cell, cb, res})
		}
	}
	ps.work = sw.stop()
	ps.unit = ps.work
	ps.hitPct = pctwmRate / float64(len(w.benches))

	var problems []string
	checks := 0
	for _, c := range cells {
		checks++
		problems = append(problems, campaignResultProblems("campaign "+c.name, c.res)...)
		if first {
			for _, f := range c.res.Failures {
				checks++
				problems = append(problems, bundleProblems(fsys.ReadFile, c.cb.prog, f)...)
			}
		}
	}
	if first {
		w.hits = hits
	} else {
		checks++
		problems = append(problems, repeatProblems(w.hits, hits)...)
	}
	rep.checks(checks, problems)
	return ps
}

// check runs every fixed variant under every strategy: no hit, no race.
func (w *campaignWL) check(rep *report) {
	cells := len(w.benches) * len(strategyKinds)
	rep.attempted += int64(cells * fixedRuns)
	rep.checks(cells, w.fixedProblems(fixedDetect))
}

// fixedDetect flags anything a fixed variant must never show: a failed
// assertion, a data race, or the benchmark's own detection rule.
func fixedDetect(b *benchprog.Benchmark) func(*engine.Outcome) bool {
	return func(o *engine.Outcome) bool { return o.BugHit || len(o.Races) > 0 || b.Detect(o) }
}

func (w *campaignWL) fixedProblems(detect func(*benchprog.Benchmark) func(*engine.Outcome) bool) []string {
	var problems []string
	for _, cb := range w.benches {
		for si, s := range strategyKinds {
			res := harness.RunCampaign(cb.fixed, detect(cb.b), cb.newStrategy(s), fixedRuns, cellSeed(w.seed, si), cb.opts,
				harness.Campaign{Workers: workers()})
			if res.Hits != 0 {
				problems = append(problems, fmt.Sprintf("campaign: fixed %s under %s: %d of %d trials hit", cb.b.Name, s.name, res.Hits, res.Runs))
			}
			if n := failedTrials(res, fixedRuns); n > 0 {
				problems = append(problems, fmt.Sprintf("campaign: fixed %s under %s: %d trials failed", cb.b.Name, s.name, n))
			}
			problems = append(problems, campaignResultProblems("campaign: fixed "+cb.b.Name+" under "+s.name, res)...)
		}
	}
	return problems
}

func (w *campaignWL) describe(m measured) {
	fmt.Printf("campaign: %d cells × %d trials per pass, %d workers\n", len(w.benches)*len(strategyKinds), campaignRuns, workers())
	fmt.Printf("figure pctwm_hit_pct = %.6g %%\n", m.passes[0].hitPct)
	fmt.Printf("figure trials_per_s = %.6g 1/s (wall clock)\n", m.rate(ops, workWall))
	for _, cb := range w.benches {
		line := cb.b.Name
		for _, s := range strategyKinds {
			line += fmt.Sprintf("  %s %.1f%%", s.name, 100*float64(w.hits[cb.b.Name+"/"+s.name])/campaignRuns)
		}
		fmt.Println("  " + line)
	}
}

func (w *campaignWL) ladder() []ladderProg {
	var out []ladderProg
	for _, cb := range w.benches {
		out = append(out, ladderProg{prog: cb.prog, opts: cb.opts, est: cb.est, detect: cb.b.Detect, depth: cb.b.Depth})
	}
	return out
}

// campaignResultProblems checks the campaign-level verdicts of one cell.
func campaignResultProblems(cell string, res harness.TrialResult) []string {
	var problems []string
	if res.Nondeterministic != 0 {
		problems = append(problems, fmt.Sprintf("%s: %d failures triaged nondeterministic", cell, res.Nondeterministic))
	}
	if res.Stuck || res.Interrupted {
		problems = append(problems, fmt.Sprintf("%s: campaign stuck=%v interrupted=%v", cell, res.Stuck, res.Interrupted))
	}
	if res.Durability != "" {
		problems = append(problems, fmt.Sprintf("%s: durability %s", cell, res.Durability))
	}
	return problems
}

// bundleProblems replays one captured failure's repro bundle, read with
// read; it must reproduce its recorded outcome exactly.
func bundleProblems(read func(string) ([]byte, error), prog *engine.Program, f harness.TrialFailure) []string {
	if f.BundlePath == "" {
		return []string{fmt.Sprintf("%s seed %d: no repro bundle written: %s", prog.Name(), f.Seed, f.Msg)}
	}
	data, err := read(f.BundlePath)
	if err != nil {
		return []string{fmt.Sprintf("%s seed %d: %v", prog.Name(), f.Seed, err)}
	}
	b, err := replay.DecodeBundle(data)
	if err != nil {
		return []string{fmt.Sprintf("%s seed %d: %v", prog.Name(), f.Seed, err)}
	}
	vr, err := b.Verify(prog)
	if err != nil {
		return []string{fmt.Sprintf("%s seed %d: verify: %v", prog.Name(), f.Seed, err)}
	}
	if !vr.Match {
		return []string{fmt.Sprintf("%s seed %d: bundle does not replay: derails %d, diffs %v", prog.Name(), f.Seed, vr.Derails, vr.Diffs)}
	}
	return nil
}

// repeatProblems compares a pass's hit counts with the first pass's at
// the same seed: campaigns are deterministic, so they must be equal.
func repeatProblems(want, got map[string]int) []string {
	var problems []string
	for cell, n := range want {
		if got[cell] != n {
			problems = append(problems, fmt.Sprintf("campaign %s: %d hits, first pass had %d at the same seed", cell, got[cell], n))
		}
	}
	if len(got) != len(want) {
		problems = append(problems, fmt.Sprintf("campaign: %d cells, first pass had %d", len(got), len(want)))
	}
	return problems
}
