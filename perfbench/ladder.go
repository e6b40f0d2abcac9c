package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"pctwm/internal/axiom"
	"pctwm/internal/benchprog"
	"pctwm/internal/checkpoint"
	"pctwm/internal/core"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/telemetry"
)

// perLayerMetrics lists every metric of a traced run, in print order;
// BENCHMARK.json's per_layer list names the same set.
var perLayerMetrics = []string{
	"engine.sched_ns_per_grant", "engine.run_us_p50", "engine.run_us_p99",
	"engine.events_per_trial", "engine.allocs_per_trial", "engine.bytes_per_trial", "engine.handoff_ratio",
	"engine.sc_ns_per_event", "engine.rc11_ns_per_event", "engine.tso_ns_per_event", "engine.record_ns_per_event",
	"memmodel.rf_candidates_mean",
	"race.ns_per_event", "race.checks_per_event",
	"core.pct_ns_per_event", "core.pctwm_ns_per_event",
	"core.c11tester.next_thread_ns", "core.c11tester.pick_read_ns", "core.c11tester.calls_per_event",
	"core.pct.next_thread_ns", "core.pct.pick_read_ns", "core.pct.calls_per_event",
	"core.pctwm.next_thread_ns", "core.pctwm.pick_read_ns", "core.pctwm.calls_per_event",
	"coverage.accum_ns_per_event", "coverage.observe_ns", "coverage.merge_us", "coverage.novel_ratio",
	"telemetry.ns_per_event",
	"harness.bare_ns_per_trial", "harness.metrics_ns_per_trial", "coverage.set_ns_per_trial",
	"harness.repro_ns_per_trial", "checkpoint.ns_per_trial", "harness.speedup_nproc",
	"checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes_per_save",
	"replay.verify_ms",
	"axiom.check_us",
	"enumerate.execs_per_census", "enumerate.ns_per_exec", "enumerate.speedup_nproc", "enumerate.pruned_ratio",
	"trace.overhead_pct", "trace.spans", "trace.dropped_spans",
}

// estimate profiles a program the way the harness does before a campaign.
func estimate(prog *engine.Program, opts engine.Options, seed int64) harness.Estimate {
	return harness.EstimateParams(prog, 20, seed^0x5eed, opts)
}

// ladder measures the layers from outside: it times calls into each
// layer's public functions and reruns the same seeds with one engine or
// campaign option changed at a time; a layer's cost is the difference
// between two rungs.
type ladder struct {
	progs   []ladderProg
	seed    int64
	scratch string
	tr      *tracer
	rep     *report
	// meanTrial is the mean wall time of one trial in the workload's own
	// configuration, which sizes the harness ladder's cells.
	meanTrial time.Duration
}

func newLadder(progs []ladderProg, seed int64, scratch string, tr *tracer, rep *report) *ladder {
	return &ladder{progs: progs, seed: seed, scratch: scratch, tr: tr, rep: rep}
}

func (l *ladder) run(budget time.Duration) {
	root := l.tr.begin("ladder", 0, 0)
	defer l.tr.end(root)
	l.engineRungs(budget*35/100, root)
	l.workloadConfig(budget*10/100, root)
	l.strategyCalls(budget*10/100, root)
	l.scheduler(budget*5/100, root)
	l.harnessRungs(budget*30/100, root)
	l.explorer(root)
	fmt.Printf("scaling at nproc=%d: harness.speedup_nproc %.3fx, enumerate.speedup_nproc %.3fx\n",
		runtime.NumCPU(), l.rep.metrics["harness.speedup_nproc"].Value, l.rep.metrics["enumerate.speedup_nproc"].Value)
}

// rounds runs one(r) for r = 0, 1, … until budget is spent (at least
// three rounds) and returns the count.
func rounds(budget time.Duration, one func(r int)) int {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		one(n)
		n++
	}
	return n
}

// baseOptions are the ladder's bottom rung for p: rc11, no race
// detector, no coverage, no telemetry, no recording, with the workload's
// step budget. Runs go to completion (no StopOnBug), so a strategy that
// finds bugs sooner does not look cheaper per event for ending early.
func baseOptions(p ladderProg) engine.Options {
	return engine.Options{Model: engine.ModelRC11, MaxSteps: p.opts.MaxSteps}
}

// strategyKind is one strategy of the workloads, built as a campaign
// builds it from a program's bug depth and measured parameters.
type strategyKind struct {
	name    string
	factory func(depth int) harness.StrategyFactory
}

func (k strategyKind) make(p ladderProg) engine.Strategy { return k.factory(p.depth)(p.est) }

// pctwmKind indexes PCTWM in strategyKinds, the strategy of the
// workload-configuration runs and the harness ladder.
const pctwmKind = 2

var strategyKinds = []strategyKind{
	{"c11tester", func(int) harness.StrategyFactory { return harness.C11Tester() }},
	{"pct", func(d int) harness.StrategyFactory { return harness.PCTFactory(max(d, 1)) }},
	{"pctwm", func(d int) harness.StrategyFactory { return harness.PCTWMFactory(d, 1) }},
}

// rung is one ladder configuration: options and strategy.
type rung struct {
	name     string
	opts     func(engine.Options) engine.Options
	strategy int // index into strategyKinds
	tel      *telemetry.EngineCounters

	runners []*engine.Runner
	strats  []engine.Strategy
	ns      int64
	events  int64
}

func (g *rung) nsPerEvent() float64 { return float64(g.ns) / float64(max(g.events, 1)) }

// engineRungs runs the engine ladder with every rung interleaved trial by
// trial over the same seeds, so host drift hits every rung alike.
func (l *ladder) engineRungs(budget time.Duration, parent int) {
	same := func(o engine.Options) engine.Options { return o }
	rungs := []*rung{
		{name: "sc", opts: func(o engine.Options) engine.Options { o.Model = engine.ModelSC; return o }},
		{name: "rc11", opts: same},
		{name: "tso", opts: func(o engine.Options) engine.Options { o.Model = engine.ModelTSO; return o }},
		{name: "race", opts: func(o engine.Options) engine.Options { o.DetectRaces = true; return o }},
		{name: "coverage", opts: func(o engine.Options) engine.Options { o.Coverage = true; return o }},
		{name: "telemetry", tel: &telemetry.EngineCounters{}},
		{name: "record", opts: func(o engine.Options) engine.Options { o.Record = true; return o }},
		{name: "pct", opts: same, strategy: 1},
		{name: "pctwm", opts: same, strategy: pctwmKind},
	}
	for _, g := range rungs {
		for _, p := range l.progs {
			o := baseOptions(p)
			if g.opts != nil {
				o = g.opts(o)
			}
			o.Telemetry = g.tel
			g.runners = append(g.runners, engine.NewRunner(p.prog, o))
			g.strats = append(g.strats, strategyKinds[g.strategy].make(p))
		}
	}
	defer func() {
		for _, g := range rungs {
			for _, r := range g.runners {
				r.Close()
			}
		}
	}()
	const keepFPs, keepRecs = 100000, 300
	var fps []uint64
	var recs []*engine.Recording
	rounds(budget, func(r int) {
		seed := l.seed + int64(r)
		for _, g := range rungs {
			t0 := time.Now()
			for i, run := range g.runners {
				s := time.Now()
				o := run.Run(g.strats[i], seed)
				g.ns += time.Since(s).Nanoseconds()
				g.events += int64(o.Events)
				switch {
				case g.name == "coverage" && o.Err == nil && len(fps) < keepFPs:
					fps = append(fps, o.BehaviorFP)
				case g.name == "record" && r%4 == 0 && len(recs) < keepRecs && o.Recording != nil:
					recs = append(recs, o.Recording)
				}
			}
			l.tr.record("engine.Runner.Run/"+g.name, parent, int64(r), t0, time.Now())
		}
	})
	by := make(map[string]*rung)
	for _, g := range rungs {
		by[g.name] = g
	}
	rc11 := by["rc11"].nsPerEvent()
	l.rep.set("engine.sc_ns_per_event", "ns", by["sc"].nsPerEvent())
	l.rep.set("engine.rc11_ns_per_event", "ns", rc11-by["sc"].nsPerEvent())
	l.rep.set("engine.tso_ns_per_event", "ns", by["tso"].nsPerEvent()-by["sc"].nsPerEvent())
	l.rep.set("race.ns_per_event", "ns", by["race"].nsPerEvent()-rc11)
	l.rep.set("coverage.accum_ns_per_event", "ns", by["coverage"].nsPerEvent()-rc11)
	l.rep.set("telemetry.ns_per_event", "ns", by["telemetry"].nsPerEvent()-rc11)
	l.rep.set("engine.record_ns_per_event", "ns", by["record"].nsPerEvent()-rc11)
	l.rep.set("core.pct_ns_per_event", "ns", by["pct"].nsPerEvent()-rc11)
	l.rep.set("core.pctwm_ns_per_event", "ns", by["pctwm"].nsPerEvent()-rc11)
	l.coverageSet(fps, parent)
	l.axiomCheck(recs, budget/10, parent)
}

// coverageSet times coverage.Set.Observe and Set.Merge on the collected
// behavior fingerprints.
func (l *ladder) coverageSet(fps []uint64, parent int) {
	if len(fps) == 0 {
		l.rep.fail("ladder: no behavior fingerprints collected")
		return
	}
	span := l.tr.begin("coverage.Set", parent, 0)
	defer l.tr.end(span)
	reps := max(1, 200000/len(fps))
	var set *coverage.Set
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		set = &coverage.Set{}
		for i, fp := range fps {
			set.Observe(fp, int64(i), 0)
		}
	}
	l.rep.set("coverage.observe_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(reps*len(fps)))
	l.rep.set("coverage.novel_ratio", "ratio", float64(set.Len())/float64(set.Observations()))

	half := len(fps) / 2
	var mergeNs int64
	for r := 0; r < reps; r++ {
		a, b := &coverage.Set{}, &coverage.Set{}
		for i, fp := range fps {
			if i < half {
				a.Observe(fp, int64(i), 0)
			} else {
				b.Observe(fp, int64(i), 0)
			}
		}
		t := time.Now()
		a.Merge(b)
		mergeNs += time.Since(t).Nanoseconds()
	}
	l.rep.set("coverage.merge_us", "us", float64(mergeNs)/float64(reps)/1e3)
}

// axiomCheck times the axiomatic consistency check of recorded
// executions until budget is spent; a violation is a failed check.
func (l *ladder) axiomCheck(recs []*engine.Recording, budget time.Duration, parent int) {
	if len(recs) == 0 {
		l.rep.fail("ladder: no executions recorded")
		return
	}
	span := l.tr.begin("axiom.CheckModel", parent, 0)
	defer l.tr.end(span)
	var problems []string
	checked := 0
	t0 := time.Now()
	for _, rec := range recs {
		if checked > 0 && time.Since(t0) > budget {
			break
		}
		checked++
		g, err := axiom.FromRecording(rec)
		if err != nil {
			problems = append(problems, fmt.Sprintf("axiom: %v", err))
			continue
		}
		if v := g.CheckModel(engine.ModelRC11); len(v) > 0 {
			problems = append(problems, fmt.Sprintf("axiom: recorded execution violates rc11: %v", v[0]))
		}
	}
	l.rep.set("axiom.check_us", "us", float64(time.Since(t0).Nanoseconds())/float64(checked)/1e3)
	l.rep.checks(checked, problems)
}

// workloadConfig times whole runs in the workload's own configuration
// under PCTWM, counts their allocations, and reads the engine counters
// of a separate counted batch.
func (l *ladder) workloadConfig(budget time.Duration, parent int) {
	span := l.tr.begin("engine.Runner.Run/workload", parent, 0)
	runners := make([]*engine.Runner, len(l.progs))
	strats := make([]engine.Strategy, len(l.progs))
	for i, p := range l.progs {
		runners[i] = engine.NewRunner(p.prog, p.opts)
		strats[i] = strategyKinds[pctwmKind].make(p)
	}
	durs := make([]float64, 0, 1<<16)
	var events, trials int64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rounds(budget*8/10, func(r int) {
		for i, run := range runners {
			t0 := time.Now()
			o := run.Run(strats[i], l.seed+int64(r))
			if len(durs) < cap(durs) {
				durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			events += int64(o.Events)
			trials++
		}
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	for _, r := range runners {
		r.Close()
	}
	l.tr.end(span)
	l.meanTrial = wall / time.Duration(trials)
	s := sorted(durs)
	l.rep.set("engine.run_us_p50", "us", median(s))
	l.rep.set("engine.run_us_p99", "us", percentile(s, 99))
	l.rep.set("engine.events_per_trial", "count", float64(events)/float64(trials))
	l.rep.set("engine.allocs_per_trial", "count", float64(after.Mallocs-before.Mallocs)/float64(trials))
	l.rep.set("engine.bytes_per_trial", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(trials))
	fmt.Printf("engine.run_us: %s\n", describe(durs, "us"))

	tel := &telemetry.EngineCounters{}
	for i, p := range l.progs {
		o := p.opts
		o.Telemetry = tel
		runners[i] = engine.NewRunner(p.prog, o)
	}
	rounds(budget*2/10, func(r int) {
		for i, run := range runners {
			run.Run(strats[i], l.seed+int64(r))
		}
	})
	for _, r := range runners {
		r.Close()
	}
	grants := tel.Handoffs + tel.SameThreadGrants
	l.rep.set("engine.handoff_ratio", "ratio", float64(tel.Handoffs)/float64(max(grants, 1)))
	l.rep.set("memmodel.rf_candidates_mean", "count", tel.RFCandidates.Mean())
	l.rep.set("race.checks_per_event", "count", float64(tel.RaceChecks)/float64(max(tel.Events(), 1)))
}

// strategyCalls times every NextThread and PickRead call of each
// strategy through a wrapping strategy, in the workload's configuration.
func (l *ladder) strategyCalls(budget time.Duration, parent int) {
	for _, k := range strategyKinds {
		span := l.tr.begin("core."+k.name, parent, 0)
		runners := make([]*engine.Runner, len(l.progs))
		strats := make([]*timedStrategy, len(l.progs))
		for i, p := range l.progs {
			runners[i] = engine.NewRunner(p.prog, p.opts)
			strats[i] = &timedStrategy{Strategy: k.make(p)}
		}
		var events int64
		rounds(budget/time.Duration(len(strategyKinds)), func(r int) {
			for i, run := range runners {
				events += int64(run.Run(strats[i], l.seed+int64(r)).Events)
			}
		})
		var agg timedStrategy
		for i, r := range runners {
			r.Close()
			agg.nextCalls += strats[i].nextCalls
			agg.readCalls += strats[i].readCalls
			agg.nextNs += strats[i].nextNs
			agg.readNs += strats[i].readNs
		}
		l.tr.end(span)
		l.rep.set("core."+k.name+".next_thread_ns", "ns", float64(agg.nextNs)/float64(max(agg.nextCalls, 1)))
		l.rep.set("core."+k.name+".pick_read_ns", "ns", float64(agg.readNs)/float64(max(agg.readCalls, 1)))
		l.rep.set("core."+k.name+".calls_per_event", "count", float64(agg.nextCalls+agg.readCalls)/float64(max(events, 1)))
	}
}

// yieldProgram is a program of threads that only yield: it costs the
// scheduler and the coroutine handoffs and nothing else.
func yieldProgram() *engine.Program {
	p := engine.NewProgram("yield-only")
	for i := 0; i < 4; i++ {
		p.AddThread(func(t *engine.Thread) {
			for j := 0; j < 64; j++ {
				t.Yield()
			}
		})
	}
	return p
}

// scheduler measures the cost of one scheduling grant on the yield-only
// program under sc and the random strategy.
func (l *ladder) scheduler(budget time.Duration, parent int) {
	span := l.tr.begin("engine.Runner.Run/yield", parent, 0)
	defer l.tr.end(span)
	r := engine.NewRunner(yieldProgram(), engine.Options{Model: engine.ModelSC})
	defer r.Close()
	strat := core.NewRandom()
	var ns, steps int64
	rounds(budget, func(i int) {
		t0 := time.Now()
		o := r.Run(strat, l.seed+int64(i))
		ns += time.Since(t0).Nanoseconds()
		steps += int64(o.Steps)
	})
	l.rep.set("engine.sched_ns_per_grant", "ns", float64(ns)/float64(max(steps, 1)))
}

// campaignRung is one configuration of the harness ladder.
type campaignRung struct {
	name         string
	workers      int
	metrics, cov bool
	repro, ckpt  bool
	wall         time.Duration
	trials       int64
}

func (g *campaignRung) nsPerTrial() float64 {
	return float64(g.wall.Nanoseconds()) / float64(max(g.trials, 1))
}

// harnessRungs runs RunCampaign over the workload's programs under PCTWM
// with the campaign layers switched on one at a time, interleaved
// repetition by repetition. The first repetition's checkpoints and repro
// bundles also feed the checkpoint and replay timings.
func (l *ladder) harnessRungs(budget time.Duration, parent int) {
	n := workers()
	rungs := []*campaignRung{
		{name: "bare1", workers: 1},
		{name: "bare", workers: n},
		{name: "metrics", workers: n, metrics: true},
		{name: "coverage", workers: n, metrics: true, cov: true},
		{name: "repro", workers: n, metrics: true, cov: true, repro: true},
		{name: "checkpoint", workers: n, metrics: true, cov: true, repro: true, ckpt: true},
	}
	// A cell of about 20 ms of trials on n workers amortises the
	// campaign's per-cell start-up as the campaign workload does.
	runs := int(20 * time.Millisecond * time.Duration(n) / max(l.meanTrial, time.Microsecond))
	runs = min(max(runs, 20), campaignRuns)
	hub := &telemetry.Metrics{}
	var payload []byte
	var bundles, verified int
	var verifyMs []float64
	var problems []string
	rounds(budget, func(r int) {
		dir, err := os.MkdirTemp(l.scratch, "ladder-")
		if err != nil {
			l.rep.fail("ladder scratch dir: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		for _, g := range rungs {
			span := l.tr.begin("harness.RunCampaign/"+g.name, parent, int64(r))
			camp := harness.Campaign{Workers: g.workers, Coverage: g.cov}
			if g.metrics {
				camp.Metrics = hub
			}
			if g.ckpt {
				camp.Checkpoint = &harness.CheckpointSpec{Dir: filepath.Join(dir, "ckpt")}
			}
			var results []harness.TrialResult
			t0 := time.Now()
			for i, p := range l.progs {
				if g.repro {
					camp.ReproDir = filepath.Join(dir, g.name, fmt.Sprint(i))
				}
				camp.CheckpointCell = fmt.Sprint(i)
				res := harness.RunCampaign(p.prog, p.detect, func() engine.Strategy { return strategyKinds[pctwmKind].make(p) },
					runs, l.seed+int64(r), p.opts, camp)
				g.trials += int64(res.Runs)
				l.rep.failed += failedTrials(res, runs)
				results = append(results, res)
			}
			g.wall += time.Since(t0)
			l.tr.end(span)
			if r > 0 || !g.repro {
				continue
			}
			for i, res := range results {
				for _, f := range res.Failures {
					bundles++
					t := time.Now()
					ps := bundleProblems(os.ReadFile, l.progs[i].prog, f)
					verifyMs = append(verifyMs, float64(time.Since(t).Nanoseconds())/1e6)
					if len(ps) == 0 {
						verified++
					}
					problems = append(problems, ps...)
				}
			}
			if g.ckpt {
				payload = largestCheckpoint(filepath.Join(dir, "ckpt"))
			}
		}
	})
	by := make(map[string]*campaignRung)
	for _, g := range rungs {
		by[g.name] = g
	}
	l.rep.set("harness.bare_ns_per_trial", "ns", by["bare"].nsPerTrial())
	l.rep.set("harness.metrics_ns_per_trial", "ns", by["metrics"].nsPerTrial()-by["bare"].nsPerTrial())
	l.rep.set("coverage.set_ns_per_trial", "ns", by["coverage"].nsPerTrial()-by["metrics"].nsPerTrial())
	l.rep.set("harness.repro_ns_per_trial", "ns", by["repro"].nsPerTrial()-by["coverage"].nsPerTrial())
	l.rep.set("checkpoint.ns_per_trial", "ns", by["checkpoint"].nsPerTrial()-by["repro"].nsPerTrial())
	l.rep.set("harness.speedup_nproc", "x", by["bare1"].nsPerTrial()/by["bare"].nsPerTrial())
	l.rep.checks(bundles, problems)
	if len(verifyMs) == 0 {
		l.rep.fail("ladder: the campaigns wrote no repro bundle to verify")
	} else {
		l.rep.set("replay.verify_ms", "ms", median(verifyMs))
	}
	fmt.Printf("harness ladder: %d trials per cell; %d of %d repro bundles verified\n", runs, verified, bundles)
	l.checkpointStore(payload, parent)
}

// largestCheckpoint returns the largest checkpoint payload a campaign
// left under dir.
func largestCheckpoint(dir string) []byte {
	var best []byte
	cells, _ := os.ReadDir(dir) // a missing directory has no checkpoint
	for _, c := range cells {
		st := &checkpoint.Store{Dir: filepath.Join(dir, c.Name())}
		if p, _, err := st.LoadLatest(); err == nil && len(p) > len(best) {
			best = p
		}
	}
	return best
}

// checkpointSaves is how many generations the checkpoint timing writes.
const checkpointSaves = 40

// checkpointStore times Store.Save and Store.LoadLatest with the
// campaign's own checkpoint payload.
func (l *ladder) checkpointStore(payload []byte, parent int) {
	if len(payload) == 0 {
		l.rep.fail("ladder: the campaigns left no checkpoint payload")
		return
	}
	dir, err := os.MkdirTemp(l.scratch, "store-")
	if err != nil {
		l.rep.fail("ladder scratch dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	span := l.tr.begin("checkpoint.Store", parent, 0)
	defer l.tr.end(span)
	st := &checkpoint.Store{Dir: dir}
	var saves, loads []float64
	for i := 0; i < checkpointSaves; i++ {
		t0 := time.Now()
		if _, err := st.Save("perfbench", payload); err != nil {
			l.rep.fail("checkpoint save: %v", err)
			return
		}
		t1 := time.Now()
		got, _, err := st.LoadLatest()
		if err != nil || len(got) != len(payload) {
			l.rep.fail("checkpoint load: %v (%d of %d bytes)", err, len(got), len(payload))
			return
		}
		saves = append(saves, float64(t1.Sub(t0).Nanoseconds())/1e6)
		loads = append(loads, float64(time.Since(t1).Nanoseconds())/1e6)
	}
	var size int64
	entries, _ := os.ReadDir(dir) // sizes only; Save just succeeded
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Size() > size {
			size = info.Size()
		}
	}
	l.rep.set("checkpoint.save_ms", "ms", median(saves))
	l.rep.set("checkpoint.load_ms", "ms", median(loads))
	l.rep.set("checkpoint.bytes_per_save", "B", float64(size))
}

// explorer times the rc11 behavior census of the litmus suite at every
// worker and at one (three times each), and counts the explorer's discarded work in a
// Limit-capped exploration (only a capped exploration prunes).
func (l *ladder) explorer(parent int) {
	tests := litmus.Suite()
	census := func(workers int) (time.Duration, int64) {
		span := l.tr.begin(fmt.Sprintf("enumerate.BehaviorCensus/w%d", workers), parent, 0)
		defer l.tr.end(span)
		var runs int64
		t0 := time.Now()
		for _, t := range tests {
			c, err := enumerate.BehaviorCensus(t.Program, engine.Options{}, enumerate.Config{Workers: workers})
			if err != nil {
				l.rep.fail("ladder census %s: %v", t.Name, err)
				continue
			}
			runs += int64(c.Runs)
		}
		return time.Since(t0), runs
	}
	// Alternate the two worker counts so host drift hits both alike.
	var walls1, wallsN []float64
	var execs int64
	for i := 0; i < 3; i++ {
		w1, _ := census(1)
		wN, n := census(workers())
		walls1, wallsN, execs = append(walls1, w1.Seconds()), append(wallsN, wN.Seconds()), n
	}
	b := benchprog.All()[0]
	tel := &telemetry.EngineCounters{}
	opts := b.Options()
	opts.Telemetry = tel
	span := l.tr.begin("enumerate.Outcomes", parent, 0)
	var events atomic.Int64
	_, res := enumerate.Outcomes(b.Build(0), opts, enumerate.Config{Limit: exploreLimit, Workers: workers()}, bugKey(b, &events))
	l.tr.end(span)
	if res.Drift != nil {
		l.rep.fail("ladder exploration %s: drift: %v", b.Name, res.Drift)
	}
	l.rep.attempted += 6*execs + int64(res.Runs)
	l.rep.set("enumerate.execs_per_census", "count", float64(execs))
	l.rep.set("enumerate.ns_per_exec", "ns", median(wallsN)*1e9/float64(max(execs, 1)))
	l.rep.set("enumerate.speedup_nproc", "x", median(walls1)/median(wallsN))
	l.rep.set("enumerate.pruned_ratio", "ratio", float64(tel.ExplorePruned)/float64(max(tel.ExploreRuns, 1)))
}
