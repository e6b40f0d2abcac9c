package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/replay"
)

// Each output check must fire on a planted defect and stay quiet on the
// real outputs.

func TestFixedCheckFiresOnHitReportingDetect(t *testing.T) {
	w := &campaignWL{}
	if err := w.setup(1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if p := w.fixedProblems(fixedDetect); len(p) != 0 {
		t.Fatalf("fixed variants flagged with the real detection rule: %v", p)
	}
	always := func(*benchprog.Benchmark) func(*engine.Outcome) bool {
		return func(*engine.Outcome) bool { return true }
	}
	if p := w.fixedProblems(always); len(p) != len(w.benches)*len(strategyKinds) {
		t.Fatalf("a detect that reports a hit on every fixed trial gave %d problems, want one per cell: %v", len(p), p)
	}
}

func TestRepeatCheckFiresOnChangedHits(t *testing.T) {
	first := map[string]int{"dekker/pct": 10, "seqlock/pctwm": 3}
	if p := repeatProblems(first, map[string]int{"dekker/pct": 10, "seqlock/pctwm": 3}); len(p) != 0 {
		t.Fatalf("equal hits flagged: %v", p)
	}
	if p := repeatProblems(first, map[string]int{"dekker/pct": 10, "seqlock/pctwm": 4}); len(p) != 1 {
		t.Fatalf("changed hits gave %v", p)
	}
	if p := repeatProblems(first, map[string]int{"dekker/pct": 10}); len(p) == 0 {
		t.Fatal("a missing cell was not flagged")
	}
}

func TestCampaignResultCheckFiresOnNondeterminism(t *testing.T) {
	if p := campaignResultProblems("c", harness.TrialResult{Runs: 5}); len(p) != 0 {
		t.Fatalf("clean result flagged: %v", p)
	}
	for _, res := range []harness.TrialResult{
		{Nondeterministic: 1}, {Stuck: true}, {Interrupted: true}, {Durability: harness.DurabilityDegraded},
	} {
		if p := campaignResultProblems("c", res); len(p) != 1 {
			t.Errorf("%+v gave %v", res, p)
		}
	}
	if n := failedTrials(harness.TrialResult{Runs: 8, Panics: 1, Aborted: 2, Nondeterministic: 1}, 10); n != 6 {
		t.Errorf("failedTrials = %d, want 6 (4 failed + 2 missing)", n)
	}
}

func TestBundleCheckFiresOnTamperedBundle(t *testing.T) {
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(0)
	dir := t.TempDir()
	res := harness.RunCampaign(prog, b.Detect, func() engine.Strategy { return harness.C11Tester()(harness.Estimate{}) },
		200, 1, b.Options(), harness.Campaign{Workers: 1, ReproDir: dir, MaxRepros: 1})
	if len(res.Failures) != 1 {
		t.Fatalf("want one captured failure, got %d", len(res.Failures))
	}
	f := res.Failures[0]
	if p := bundleProblems(os.ReadFile, prog, f); len(p) != 0 {
		t.Fatalf("genuine bundle flagged: %v", p)
	}
	bundle, err := replay.LoadBundle(f.BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	bundle.Outcome.Events++
	data, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f.BundlePath = filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(f.BundlePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if p := bundleProblems(os.ReadFile, prog, f); len(p) != 1 {
		t.Fatalf("tampered bundle gave %v", p)
	}
	f.BundlePath = ""
	if p := bundleProblems(os.ReadFile, prog, f); len(p) != 1 {
		t.Fatalf("missing bundle gave %v", p)
	}
}

func TestCampaignOnMemFS(t *testing.T) {
	// A checkpointed campaign with a repro sink runs on memFS as on disk:
	// its checkpoint generations and bundles land there, the bundles
	// replay, and a resumed run of the same campaign restores every trial
	// from the checkpoint.
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(0)
	fsys := newMemFS()
	camp := harness.Campaign{Workers: 2, ReproDir: "repro", MaxRepros: 2,
		Checkpoint: &harness.CheckpointSpec{Dir: "ckpt", FS: fsys}, CheckpointCell: "dekker/c11tester"}
	newStrategy := func() engine.Strategy { return harness.C11Tester()(harness.Estimate{}) }
	res := harness.RunCampaign(prog, b.Detect, newStrategy, 200, 1, b.Options(), camp)
	if len(res.Failures) == 0 || res.Durability != "" {
		t.Fatalf("want captured failures and full durability, got %d failures, durability %q", len(res.Failures), res.Durability)
	}
	for _, f := range res.Failures {
		if p := bundleProblems(fsys.ReadFile, prog, f); len(p) != 0 {
			t.Fatalf("bundle on memFS flagged: %v", p)
		}
	}
	if p := bundleProblems(fsys.ReadFile, prog, harness.TrialFailure{BundlePath: "repro/none.json"}); len(p) != 1 {
		t.Fatalf("a missing bundle gave %v", p)
	}
	camp.Checkpoint = &harness.CheckpointSpec{Dir: "ckpt", FS: fsys, Resume: true}
	again := harness.RunCampaign(prog, b.Detect, newStrategy, 200, 1, b.Options(), camp)
	if again.ResumedRuns != 200 || again.Hits != res.Hits {
		t.Fatalf("second run resumed %d runs with %d hits, want 200 with %d", again.ResumedRuns, again.Hits, res.Hits)
	}
}

func TestAppsCheckFiresOnMissedRace(t *testing.T) {
	w := &appsWL{}
	if err := w.setup(1, ""); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	w.pass(nil, 0, rep)
	if len(rep.problems) != 0 {
		t.Fatalf("real apps pass flagged: %v", rep.problems)
	}
	rep = newReport()
	w.passWith(func(*engine.Outcome) bool { return false }, nil, 0, rep)
	if len(rep.problems) != len(w.cells)*len(appsStrategies) {
		t.Fatalf("a detect that never sees a race gave %v", rep.problems)
	}
	if p := appsProblems("c", harness.TrialResult{Runs: 4, Hits: 4, Aborted: 1}, 4); len(p) != 1 {
		t.Fatalf("an aborted run gave %v", p)
	}
}

// outcomes explores t under model keyed by register outcome.
func outcomes(t *testing.T, lt *litmus.Test, model string) map[string]int {
	t.Helper()
	counts, res := enumerate.Outcomes(lt.Program, engine.Options{Model: model}, enumerate.Config{Workers: 1},
		func(o *engine.Outcome) string { return lt.Outcome(o.FinalValues) })
	if res.Drift != nil || !res.Complete {
		t.Fatalf("exploring %s: drift %v, complete %v", lt.Name, res.Drift, res.Complete)
	}
	return counts
}

func TestCensusCheckFiresOnRemovedOrForbiddenOutcome(t *testing.T) {
	lt := litmus.SBRelaxed()
	counts := outcomes(t, lt, engine.ModelRC11)
	if p, known := censusProblems(lt, engine.ModelRC11, counts, true); len(p) != 0 || len(known) != 0 {
		t.Fatalf("real census flagged: %v, %v", p, known)
	}
	exp := lt.Expect(engine.ModelRC11)
	removed := make(map[string]int)
	for k, v := range counts {
		removed[k] = v
	}
	delete(removed, exp.Weak[0])
	if p, _ := censusProblems(lt, engine.ModelRC11, removed, true); len(p) == 0 {
		t.Fatal("a census with its weak outcome removed was not flagged")
	}
	// SC's table leaves out SB's weak outcome, which rc11 reaches.
	if p, _ := censusProblems(lt, engine.ModelSC, counts, true); len(p) != 1 {
		t.Fatalf("an outcome outside the allowed table gave %v", p)
	}
	// TSO's table forbids IRIW's disagreeing readers, which rc11 reaches.
	iriw := litmus.IRIWRelaxed()
	p, _ := censusProblems(iriw, engine.ModelTSO, outcomes(t, iriw, engine.ModelRC11), true)
	if !slices.ContainsFunc(p, func(s string) bool { return strings.Contains(s, "forbidden") }) {
		t.Fatalf("a forbidden outcome was not flagged: %v", p)
	}
	if p, _ := censusProblems(lt, engine.ModelRC11, counts, false); len(p) != 1 {
		t.Fatalf("an incomplete exploration gave %v", p)
	}
}

func TestCensusCheckKnownGapsOnly(t *testing.T) {
	// The known tso gap of CoWR is reported as known, not as a failure.
	lt := litmus.CoWR()
	counts := outcomes(t, lt, engine.ModelTSO)
	p, known := censusProblems(lt, engine.ModelTSO, counts, true)
	if len(p) != 0 || len(known) != 1 || !strings.Contains(known[0], "never reached") {
		t.Fatalf("CoWR under tso gave problems %v, known %v", p, known)
	}
	// Another allowed outcome removed from the same census still fails.
	removed := make(map[string]int)
	for k, v := range counts {
		removed[k] = v
	}
	delete(removed, "r=1 X=2")
	if p, _ := censusProblems(lt, engine.ModelTSO, removed, true); len(p) != 1 {
		t.Fatalf("an unlisted unreached outcome gave %v", p)
	}
	// The same outcome reached under sc is no gap at all, and a listed gap
	// that is reached is reported so the list can be trimmed.
	sc := outcomes(t, lt, engine.ModelSC)
	if p, known := censusProblems(lt, engine.ModelSC, sc, true); len(p) != 0 || len(known) != 0 {
		t.Fatalf("CoWR under sc gave problems %v, known %v", p, known)
	}
	if p, known := censusProblems(lt, engine.ModelTSO, sc, true); len(p) != 0 || len(known) != 1 || !strings.Contains(known[0], "now reached") {
		t.Fatalf("a reached known gap gave problems %v, known %v", p, known)
	}
	// Every listed gap names a real test, model and allowed outcome.
	for key := range knownGaps {
		found := false
		for _, lt := range litmus.Suite() {
			for _, model := range engine.Models() {
				for _, a := range lt.Expect(model).Allowed {
					found = found || gapKey(lt, model, a) == key
				}
			}
		}
		if !found {
			t.Errorf("knownGaps entry %q matches no allowed outcome", key)
		}
	}
}

func TestCensusRepeatCheckFiresOnChangedCensus(t *testing.T) {
	lt := litmus.SBRelaxed()
	c, err := enumerate.BehaviorCensus(lt.Program, engine.Options{}, enumerate.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := censusRepeatProblems("sb", c, c, c.Runs); len(p) != 0 {
		t.Fatalf("identical census flagged: %v", p)
	}
	changed := *c
	changed.Behaviors = c.Behaviors[1:]
	if p := censusRepeatProblems("sb", &changed, c, c.Runs); len(p) != 1 {
		t.Fatalf("a census with a behavior removed gave %v", p)
	}
	if p := censusRepeatProblems("sb", c, nil, c.Runs+1); len(p) != 1 {
		t.Fatalf("a census with a different execution count gave %v", p)
	}
}
