package main

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
)

// exploreLimit caps the exploration of each benchprog program (the
// first exploreLimit leaves in depth-first order).
const exploreLimit = 5000

// exploreWL is exhaustive exploration: a behavior census of the whole
// litmus suite under every memory model, then a Limit-capped exploration
// of every benchprog program.
type exploreWL struct {
	seed    int64
	tests   []*litmus.Test
	benches []*benchprog.Benchmark
	progs   []*engine.Program
	// runs holds each (test, model) leaf count from the reference
	// exploration; census holds each census of the first pass.
	runs         map[string]int
	census       map[string]*enumerate.Census
	censusEvents int64 // memory events of the leaves of one full census
}

// setup builds the inputs. Exhaustive exploration makes no random
// choice, so the seed changes only the traced run's ladder, which
// samples schedules.
func (w *exploreWL) setup(seed int64, _ string) error {
	w.seed = seed
	w.tests = litmus.Suite()
	w.benches = benchprog.All()
	w.progs = w.progs[:0]
	for _, b := range w.benches {
		w.progs = append(w.progs, b.Build(0))
	}
	w.census = make(map[string]*enumerate.Census)
	// Warm the explorer's pooled runners on a small litmus program, the
	// same one at every seed.
	_, err := enumerate.BehaviorCensus(litmus.SBRelaxed().Program, engine.Options{}, enumerate.Config{Workers: workers()})
	return err
}

func censusKeyOf(t *litmus.Test, model string) string { return t.Name + "/" + model }

// check explores every litmus test under every model, keyed by its
// register outcome, and holds the outcomes against the test's
// hand-written expectation table.
func (w *exploreWL) check(rep *report) {
	w.runs = make(map[string]int)
	w.censusEvents = 0
	var problems []string
	for _, model := range engine.Models() {
		for _, t := range w.tests {
			var events atomic.Int64
			counts, res := enumerate.Outcomes(t.Program, engine.Options{Model: model, Coverage: true},
				enumerate.Config{Workers: workers()}, func(o *engine.Outcome) string {
					events.Add(int64(o.Events))
					if o.Err != nil {
						return "error: " + o.Err.Kind.String()
					}
					return t.Outcome(o.FinalValues)
				})
			if res.Drift != nil {
				problems = append(problems, fmt.Sprintf("explore %s under %s: drift: %v", t.Name, model, res.Drift))
				continue
			}
			rep.attempted += int64(res.Runs)
			rep.failed += int64(res.Truncated)
			w.runs[censusKeyOf(t, model)] = res.Runs
			w.censusEvents += events.Load()
			p, known := censusProblems(t, model, counts, res.Complete)
			problems = append(problems, p...)
			rep.known = append(rep.known, known...)
		}
	}
	rep.checks(len(w.tests)*len(engine.Models()), problems)
}

// knownGaps names the allowed outcomes, as "test/model: outcome", that
// the engine is known never to reach. Each is reached under sc, so SC ⊆
// TSO fails on these programs: the tso backend drains a store buffer only
// when a load reads one of its stores or at a forced point (RMW, SC store
// or fence, spawn, thread end), never on its own, so a thread's store
// cannot reach memory before the same thread's later load or before
// another thread's store that issued after it. These are engine defects,
// printed on every run as known defects; they do not fail the run, and
// any other unreached outcome does.
var knownGaps = map[string]bool{
	"CoWR/tso: r=2 X=2":   true,
	"2+2W/tso: X=2 Y=2":   true,
	"R/tso: a=1 X=1":      true,
	"SB+rmw/tso: a=1 b=1": true,
}

func gapKey(t *litmus.Test, model, outcome string) string {
	return censusKeyOf(t, model) + ": " + outcome
}

// censusProblems holds one exhaustive outcome count against the test's
// expectation table for model: every allowed and weak outcome is
// reachable, nothing forbidden or unlisted is, and no leaf errored. An
// unreached allowed outcome listed in knownGaps is returned in known
// instead of problems; a listed one that is reached is returned in known
// too, so the list can be trimmed.
func censusProblems(t *litmus.Test, model string, counts map[string]int, complete bool) (problems, known []string) {
	where := fmt.Sprintf("explore %s under %s", t.Name, model)
	if !complete {
		problems = append(problems, where+": exploration incomplete")
	}
	exp := t.Expect(model)
	allowed := make(map[string]bool)
	for _, a := range exp.Allowed {
		allowed[a] = true
		gap := knownGaps[gapKey(t, model, a)]
		switch {
		case counts[a] == 0 && gap:
			known = append(known, fmt.Sprintf("%s: allowed outcome %q never reached (engine defect, see knownGaps)", where, a))
		case counts[a] == 0:
			problems = append(problems, fmt.Sprintf("%s: allowed outcome %q never reached", where, a))
		case gap:
			known = append(known, fmt.Sprintf("%s: outcome %q listed in knownGaps is now reached; remove it from the list", where, a))
		}
	}
	for _, wk := range exp.Weak {
		if counts[wk] == 0 {
			problems = append(problems, fmt.Sprintf("%s: weak outcome %q never reached", where, wk))
		}
	}
	forbidden := make(map[string]bool)
	for _, f := range exp.Forbidden {
		forbidden[f] = true
	}
	var seen []string
	for out := range counts {
		seen = append(seen, out)
	}
	sort.Strings(seen)
	for _, out := range seen {
		switch {
		case forbidden[out]:
			problems = append(problems, fmt.Sprintf("%s: forbidden outcome %q reached", where, out))
		case len(exp.Allowed) > 0 && !allowed[out]:
			problems = append(problems, fmt.Sprintf("%s: outcome %q is not in the allowed table", where, out))
		}
	}
	return problems, known
}

// bugKey classifies a capped benchprog leaf by the benchmark's rule.
func bugKey(b *benchprog.Benchmark, events *atomic.Int64) func(*engine.Outcome) string {
	return func(o *engine.Outcome) string {
		events.Add(int64(o.Events))
		if b.Detect(o) {
			return "bug"
		}
		return "ok"
	}
}

func (w *exploreWL) pass(tr *tracer, parent int, rep *report) passStats {
	var ps passStats
	var problems []string
	checks := 0
	sw := startWatch()
	for _, model := range engine.Models() {
		for _, t := range w.tests {
			span := tr.begin("enumerate.BehaviorCensus", parent, 0)
			c, err := enumerate.BehaviorCensus(t.Program, engine.Options{Model: model}, enumerate.Config{Workers: workers()})
			tr.end(span)
			checks++
			key := censusKeyOf(t, model)
			if err != nil {
				rep.failed++
				problems = append(problems, fmt.Sprintf("explore census %s: %v", key, err))
				continue
			}
			ps.ops += int64(c.Runs)
			problems = append(problems, censusRepeatProblems(key, c, w.census[key], w.runs[key])...)
			if w.census[key] == nil {
				w.census[key] = c
			}
		}
	}
	ps.unit = sw.stop()
	ps.events = w.censusEvents

	part := startWatch()
	var bugs int64
	for i, b := range w.benches {
		var events atomic.Int64
		span := tr.begin("enumerate.Outcomes", parent, 0)
		counts, res := enumerate.Outcomes(w.progs[i], b.Options(), enumerate.Config{Limit: exploreLimit, Workers: workers()}, bugKey(b, &events))
		tr.end(span)
		checks++
		if res.Drift != nil {
			rep.failed++
			problems = append(problems, fmt.Sprintf("explore %s: drift: %v", b.Name, res.Drift))
			continue
		}
		rep.failed += int64(res.Truncated)
		ps.ops += int64(res.Runs)
		ps.part += int64(res.Runs)
		ps.events += events.Load()
		bugs += int64(counts["bug"])
	}
	ps.partT = part.stop()
	ps.work = sw.stop()
	if ps.part > 0 {
		ps.hitPct = 100 * float64(bugs) / float64(ps.part)
	}
	rep.checks(checks, problems)
	return ps
}

// censusRepeatProblems holds a census against the first pass's census of
// the same program and model (the explorer is deterministic) and against
// the leaf count of the reference exploration.
func censusRepeatProblems(key string, c, first *enumerate.Census, runs int) []string {
	var problems []string
	if !c.Complete {
		problems = append(problems, fmt.Sprintf("explore census %s: incomplete", key))
	}
	if c.Runs != runs {
		problems = append(problems, fmt.Sprintf("explore census %s: %d executions, the reference exploration had %d", key, c.Runs, runs))
	}
	if first != nil && (c.Runs != first.Runs || !slices.Equal(c.Fingerprints(), first.Fingerprints())) {
		problems = append(problems, fmt.Sprintf("explore census %s: differs from the first pass", key))
	}
	return problems
}

func (w *exploreWL) describe(m measured) {
	fmt.Printf("explore: %d litmus tests × %d models, %d benchprog programs capped at %d executions, %d workers\n",
		len(w.tests), len(engine.Models()), len(w.benches), exploreLimit, workers())
	fmt.Printf("figure census_s = %.6g s (wall clock)\n", median(m.series(func(ps passStats) time.Duration { return ps.unit.wall })))
	fmt.Printf("figure execs_per_s = %.6g 1/s (wall clock, capped part)\n",
		m.rate(func(ps passStats) int64 { return ps.part }, func(ps passStats) time.Duration { return ps.partT.wall }))
}

func (w *exploreWL) ladder() []ladderProg {
	var out []ladderProg
	for _, t := range w.tests {
		out = append(out, ladderProg{prog: t.Program, est: estimate(t.Program, engine.Options{}, w.seed), detect: (*engine.Outcome).Failed, depth: 1})
	}
	for i, b := range w.benches {
		out = append(out, ladderProg{prog: w.progs[i], opts: b.Options(), est: estimate(w.progs[i], b.Options(), w.seed), detect: b.Detect, depth: b.Depth})
	}
	return out
}
