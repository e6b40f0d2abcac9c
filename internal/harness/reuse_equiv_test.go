package harness_test

// Trace-equivalence gate for Runner reuse: for every litmus test and
// every paper benchmark, a long-lived Runner (pooled thread coroutines,
// warm init state, recycled thread shells, arenas and interned final
// values) must produce the same executions as a fresh Runner per seed —
// same recorded event trace (po, rf, mo, SC order, spawn/join links),
// same outcome classification, same final state. This is the Runner's
// determinism guarantee checked over the whole program suite; the rc11
// golden digests pin the schedules themselves.

import (
	"reflect"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

// equivSeeds is the number of seeds each program is replayed under per
// strategy, on both the reused and the fresh Runner.
const equivSeeds = 200

// compareOutcomes fails the test when the two outcomes differ in anything
// but wall-clock duration.
func compareOutcomes(t *testing.T, name, strategy string, seed int64, reused, fresh *engine.Outcome) {
	t.Helper()
	fail := func(field string, r, f any) {
		t.Errorf("%s/%s seed %d: %s diverged: reused=%v fresh=%v", name, strategy, seed, field, r, f)
	}
	if reused.Steps != fresh.Steps {
		fail("Steps", reused.Steps, fresh.Steps)
	}
	if reused.Events != fresh.Events {
		fail("Events", reused.Events, fresh.Events)
	}
	if reused.CommEvents != fresh.CommEvents {
		fail("CommEvents", reused.CommEvents, fresh.CommEvents)
	}
	if reused.BugHit != fresh.BugHit {
		fail("BugHit", reused.BugHit, fresh.BugHit)
	}
	if !reflect.DeepEqual(reused.BugMessages, fresh.BugMessages) {
		fail("BugMessages", reused.BugMessages, fresh.BugMessages)
	}
	if reused.Aborted != fresh.Aborted {
		fail("Aborted", reused.Aborted, fresh.Aborted)
	}
	if reused.Deadlocked != fresh.Deadlocked {
		fail("Deadlocked", reused.Deadlocked, fresh.Deadlocked)
	}
	if !reflect.DeepEqual(reused.Err, fresh.Err) {
		fail("Err", reused.Err, fresh.Err)
	}
	if !reflect.DeepEqual(reused.Races, fresh.Races) {
		fail("Races", reused.Races, fresh.Races)
	}
	if !reflect.DeepEqual(reused.FinalValues, fresh.FinalValues) {
		fail("FinalValues", reused.FinalValues, fresh.FinalValues)
	}
	switch {
	case reused.Recording == nil || fresh.Recording == nil:
		fail("Recording presence", reused.Recording != nil, fresh.Recording != nil)
	case !reflect.DeepEqual(reused.Recording.Events, fresh.Recording.Events):
		fail("Recording.Events", len(reused.Recording.Events), len(fresh.Recording.Events))
	case !reflect.DeepEqual(reused.Recording.SCOrder, fresh.Recording.SCOrder):
		fail("Recording.SCOrder", reused.Recording.SCOrder, fresh.Recording.SCOrder)
	case !reflect.DeepEqual(reused.Recording.SpawnLinks, fresh.Recording.SpawnLinks):
		fail("Recording.SpawnLinks", reused.Recording.SpawnLinks, fresh.Recording.SpawnLinks)
	case !reflect.DeepEqual(reused.Recording.JoinLinks, fresh.Recording.JoinLinks):
		fail("Recording.JoinLinks", reused.Recording.JoinLinks, fresh.Recording.JoinLinks)
	case !reflect.DeepEqual(reused.Recording.LocNames, fresh.Recording.LocNames):
		fail("Recording.LocNames", reused.Recording.LocNames, fresh.Recording.LocNames)
	}
}

// checkEquivalence runs prog under mk()-built strategies for seeds 1..n,
// once on a Runner reused across all seeds and once on a fresh Runner per
// seed, and compares every execution. Each run gets its own strategy
// instance so no strategy state leaks between the two runs compared.
func checkEquivalence(t *testing.T, name string, prog *engine.Program, opts engine.Options, strategy string, mk func() engine.Strategy, n int) {
	t.Helper()
	opts.Record = true
	reused := engine.NewRunner(prog, opts)
	defer reused.Close()

	for seed := int64(1); seed <= int64(n); seed++ {
		or := reused.Run(mk(), seed)
		of := engine.Run(prog, mk(), seed, opts)
		compareOutcomes(t, name, strategy, seed, or, of)
		if t.Failed() {
			t.Fatalf("%s/%s: stopping at first divergent seed %d", name, strategy, seed)
		}
	}
}

// strategies under which equivalence is checked: the random baseline
// exercises broad schedule diversity; PCTWM additionally exercises the
// strategy-state protocol (priority changes, OnSpin, read picks).
func equivStrategies(depth int) map[string]func() engine.Strategy {
	if depth < 1 {
		depth = 1
	}
	return map[string]func() engine.Strategy{
		"random": func() engine.Strategy { return core.NewRandom() },
		"pctwm":  func() engine.Strategy { return core.NewPCTWM(depth, 1, 100) },
	}
}

// TestTraceEquivalenceLitmus: every litmus test produces identical traces
// on a reused and a fresh Runner for 200 seeds.
func TestTraceEquivalenceLitmus(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			for sname, mk := range equivStrategies(1) {
				checkEquivalence(t, lt.Name, lt.Program, engine.Options{}, sname, mk, equivSeeds)
			}
		})
	}
}

// TestTraceEquivalenceBenchmarks: every paper benchmark produces
// identical traces on a reused and a fresh Runner for 200 seeds, under
// the benchmark's own options (race detection on, stop at first bug).
func TestTraceEquivalenceBenchmarks(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			seeds := equivSeeds
			if testing.Short() {
				seeds = 25
			}
			for sname, mk := range equivStrategies(b.Depth) {
				checkEquivalence(t, b.Name, b.Program(0), b.Options(), sname, mk, seeds)
			}
		})
	}
}
