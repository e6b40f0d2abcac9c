package main

import (
	"fmt"

	"pctwm/internal/apps"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

// appsRuns is the trial count of one apps cell per pass. An app trial
// is 0.1–0.6 ms, so a pass is about a second on two workers.
const appsRuns = 500

// appsDepth is the PCTWM bug depth of the Table-4 runs.
const appsDepth = 2

// appsStrategies are the strategies of Table 4.
var appsStrategies = []strategyKind{strategyKinds[0], strategyKinds[pctwmKind]}

type appsCell struct {
	app  *apps.App
	prog *engine.Program
	opts engine.Options
	est  harness.Estimate
}

// appsWL runs the Table-4 applications to completion with races on under
// c11tester and PCTWM: RunCampaign with checkpoint, coverage and repro
// off, the paper's RQ4 set-up.
type appsWL struct {
	seed   int64
	cells  []*appsCell
	passes int64
}

func (w *appsWL) setup(seed int64, _ string) error {
	w.seed, w.passes = seed, 0
	w.cells = w.cells[:0]
	for _, a := range apps.All() {
		c := &appsCell{app: a, prog: a.Build(), opts: a.Options()}
		c.est = harness.EstimateParams(c.prog, 5, seed^0x9e1f, c.opts)
		w.cells = append(w.cells, c)
	}
	return nil
}

// raced is the apps' detection rule: the run found a data race.
func raced(o *engine.Outcome) bool { return len(o.Races) > 0 }

func (w *appsWL) pass(tr *tracer, parent int, rep *report) passStats {
	return w.passWith(raced, tr, parent, rep)
}

func (w *appsWL) passWith(detect func(*engine.Outcome) bool, tr *tracer, parent int, rep *report) passStats {
	var ps passStats
	var pctwmHits, pctwmRuns int
	var problems []string
	// Every pass runs fresh trial seeds, so a run samples many schedules
	// of each app and its figures depend little on the workload seed.
	seed := w.seed + 1_000_000*w.passes
	w.passes++
	sw := startWatch()
	for _, c := range w.cells {
		for si, s := range appsStrategies {
			est := c.est
			f := s.factory(appsDepth)
			newStrategy, done := traceCell(tr, parent, func() engine.Strategy { return f(est) })
			res := harness.RunCampaign(c.prog, detect, newStrategy, appsRuns, cellSeed(seed, si), c.opts,
				harness.Campaign{Workers: workers()})
			done()
			ps.ops += int64(res.Runs)
			ps.events += int64(res.TotalEvents)
			ps.appOps += int64(c.app.Ops) * int64(res.Runs)
			rep.failed += failedTrials(res, appsRuns)
			if s.name == "pctwm" {
				pctwmHits += res.Hits
				pctwmRuns += res.Runs
			}
			problems = append(problems, appsProblems(c.app.Name+"/"+s.name, res, appsRuns)...)
		}
	}
	ps.work = sw.stop()
	ps.unit = ps.work
	if pctwmRuns > 0 {
		ps.hitPct = 100 * float64(pctwmHits) / float64(pctwmRuns)
	}
	rep.checks(len(w.cells)*len(appsStrategies), problems)
	return ps
}

// appsProblems checks one apps cell: every run detects a race (the
// paper's RQ4 claim) and no run aborts.
func appsProblems(cell string, res harness.TrialResult, runs int) []string {
	var problems []string
	if res.Hits != res.Runs || res.Runs != runs {
		problems = append(problems, fmt.Sprintf("apps %s: %d of %d runs detected a race (%d expected)", cell, res.Hits, res.Runs, runs))
	}
	if res.Aborted+res.Deadlock+res.Panics+res.Timeouts+res.Canceled > 0 || res.Stuck {
		problems = append(problems, fmt.Sprintf("apps %s: %d aborted, %d deadlocked, %d panicked, %d timed out, %d canceled, stuck=%v",
			cell, res.Aborted, res.Deadlock, res.Panics, res.Timeouts, res.Canceled, res.Stuck))
	}
	return problems
}

func (w *appsWL) check(*report) {}

func (w *appsWL) describe(m measured) {
	fmt.Printf("apps: %d cells × %d runs per pass, %d workers\n", len(w.cells)*len(appsStrategies), appsRuns, workers())
	fmt.Printf("figure trials_per_s = %.6g 1/s (wall clock)\n", m.rate(ops, workWall))
	appOps := func(ps passStats) int64 { return ps.appOps }
	fmt.Printf("figure app_ops_per_s = %.6g 1/s (wall clock), %.6g per core second\n", m.rate(appOps, workWall), m.rate(appOps, workCore))
}

func (w *appsWL) ladder() []ladderProg {
	var out []ladderProg
	for _, c := range w.cells {
		out = append(out, ladderProg{prog: c.prog, opts: c.opts, est: c.est, detect: raced, depth: appsDepth})
	}
	return out
}
