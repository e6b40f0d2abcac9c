package harness

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

// TestTelemetryMergeDeterministic: campaign counter totals are
// bit-identical between serial and every parallel worker count over the
// same seed set — merging per-worker shards is commutative, and the
// grant classification is derived purely from the schedule.
func TestTelemetryMergeDeterministic(t *testing.T) {
	b, err := benchprog.ByName("rwlock")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 10) }

	run := func(workers int) telemetry.EngineSummary {
		res := RunCampaign(prog, b.Detect, newStrategy, 200, 7, opts,
			Campaign{Workers: workers, Telemetry: true})
		if res.Telemetry == nil {
			t.Fatalf("workers=%d: no telemetry collected", workers)
		}
		return res.Telemetry.Summary()
	}

	ref := run(1)
	if ref.Trials != 200 {
		t.Fatalf("serial trials %d", ref.Trials)
	}
	if ref.Events == 0 || ref.Handoffs+ref.SameThreadGrants == 0 {
		t.Fatalf("serial counters empty: %+v", ref)
	}
	if ref.RFCandidates.Count == 0 {
		t.Fatalf("no rf candidate observations: %+v", ref)
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d telemetry diverges:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestTelemetryEventsMatchOutcome: the op matrix total equals the
// engine's own event count, and the PCTWM change-point histogram is
// populated when the strategy delays.
func TestTelemetryEventsMatchOutcome(t *testing.T) {
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program(0)
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewPCTWM(2, 1, 10) },
		100, 3, b.Options(), Campaign{Workers: 1, Telemetry: true})
	if res.Telemetry == nil {
		t.Fatal("no telemetry")
	}
	s := res.Telemetry.Summary()
	if s.Events != uint64(res.TotalEvents) {
		t.Fatalf("op matrix total %d != engine event total %d", s.Events, res.TotalEvents)
	}
	if s.ChangePointDepth.Count == 0 {
		t.Fatalf("PCTWM logged no change points over 100 trials: %+v", s)
	}
}

// TestTelemetryAccumulator: a caller-supplied Options.Telemetry both
// enables collection and accumulates across campaigns.
func TestTelemetryAccumulator(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)
	opts := b.Options()
	acc := &telemetry.EngineCounters{}
	opts.Telemetry = acc
	newStrategy := func() engine.Strategy { return core.NewRandom() }
	for i := 0; i < 2; i++ {
		res := RunCampaign(prog, b.Detect, newStrategy, 50, int64(100*i), opts, Campaign{Workers: 2})
		if res.Telemetry == nil {
			t.Fatal("Options.Telemetry did not imply collection")
		}
	}
	if acc.Trials != 100 {
		t.Fatalf("accumulator trials %d, want 100", acc.Trials)
	}
}

// TestTelemetryMetricsHub: the campaign feeds the shared metrics hub —
// trial counts, engine merge, and worker accounting all land.
func TestTelemetryMetricsHub(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)
	m := &telemetry.Metrics{}
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewRandom() },
		80, 5, b.Options(), Campaign{Workers: 4, Telemetry: true, Metrics: m})
	s := m.SnapshotAt(time.Now())
	if s.Trials != 80 || s.Expected != 80 {
		t.Fatalf("hub trials %d/%d", s.Trials, s.Expected)
	}
	if s.Events != uint64(res.TotalEvents) {
		t.Fatalf("hub events %d != %d", s.Events, res.TotalEvents)
	}
	if s.Hits != uint64(res.Hits) {
		t.Fatalf("hub hits %d != %d", s.Hits, res.Hits)
	}
	if s.Workers != 0 {
		t.Fatalf("workers still registered: %d", s.Workers)
	}
	if s.Engine.Trials != 80 {
		t.Fatalf("merged engine trials %d", s.Engine.Trials)
	}
	if res.Telemetry == nil || !reflect.DeepEqual(s.Engine, res.Telemetry.Summary()) {
		t.Fatalf("hub engine summary diverges from campaign telemetry")
	}
}

// TestTelemetryZeroAllocOverhead: arming (or not arming) an engine
// counter shard adds zero allocations to the steady-state trial loop —
// the hooks are plain field increments, and the nil path is a single
// predictable branch. (Its wall-clock cost is perfbench's
// telemetry.ns_per_event ladder step.)
func TestTelemetryZeroAllocOverhead(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)

	measure := func(tel *telemetry.EngineCounters) float64 {
		opts := b.Options()
		opts.Telemetry = tel
		r := engine.NewRunner(prog, opts)
		defer r.Close()
		strat := core.NewRandom()
		// Warm the Runner's pools.
		for i := 0; i < 20; i++ {
			r.Run(strat, int64(i))
		}
		seed := int64(0)
		return testing.AllocsPerRun(300, func() {
			r.Run(strat, seed)
			seed++
		})
	}

	nilPath := measure(nil)
	armed := measure(&telemetry.EngineCounters{})
	if delta := armed - nilPath; delta > 0.5 {
		t.Fatalf("telemetry adds %.2f allocs/run (nil %.2f, armed %.2f), want 0",
			delta, nilPath, armed)
	}
}

// TestCampaignEmbedPerfetto: with EmbedPerfetto the repro sink records
// the triage re-run and embeds a loadable Chrome trace-event document in
// the bundle, and the bundle still replays.
func TestCampaignEmbedPerfetto(t *testing.T) {
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program(0)
	dir := t.TempDir()
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewPCTWM(2, 1, 10) },
		300, 1, b.Options(), Campaign{Workers: 2, ReproDir: dir, MaxRepros: 2, EmbedPerfetto: true})
	if len(res.Failures) == 0 {
		t.Skip("no failures captured in 300 rounds (seed drift); nothing to verify")
	}
	checked := 0
	for _, f := range res.Failures {
		if f.BundlePath == "" {
			continue
		}
		bundle, err := replay.LoadBundle(f.BundlePath)
		if err != nil {
			t.Fatal(err)
		}
		if len(bundle.Perfetto) == 0 {
			t.Fatalf("bundle %s has no embedded perfetto trace", f.BundlePath)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(bundle.Perfetto, &doc); err != nil {
			t.Fatalf("embedded trace does not parse: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("embedded trace is empty")
		}
		if bundle.Triage == replay.TriageDeterministic {
			vr, err := bundle.Verify(prog)
			if err != nil {
				t.Fatal(err)
			}
			if !vr.Match {
				t.Fatalf("deterministic bundle did not replay: derails=%d diffs=%v", vr.Derails, vr.Diffs)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no bundle was written")
	}
}

// TestTrialResultRateGuards: the derived rates never divide by zero.
func TestTrialResultRateGuards(t *testing.T) {
	var zero TrialResult
	if got := zero.TrialsPerSec(); got != 0 {
		t.Fatalf("empty TrialsPerSec %v", got)
	}
	if got := zero.NsPerEvent(); got != 0 {
		t.Fatalf("empty NsPerEvent %v", got)
	}
	r := TrialResult{Runs: 10, Wall: 2 * time.Second}
	if got := r.TrialsPerSec(); got != 5 {
		t.Fatalf("TrialsPerSec %v, want 5", got)
	}
	r = TrialResult{TotalEvents: 1000, Elapsed: time.Millisecond}
	if got := r.NsPerEvent(); got != 1000 {
		t.Fatalf("NsPerEvent %v, want 1000", got)
	}
	// Degenerate: runs without wall time, events without elapsed time.
	r = TrialResult{Runs: 10}
	if got := r.TrialsPerSec(); got != 0 {
		t.Fatalf("wall-less TrialsPerSec %v", got)
	}
	r = TrialResult{TotalEvents: 10}
	if got := r.NsPerEvent(); got != 0 {
		t.Fatalf("elapsed-less NsPerEvent %v", got)
	}
}

// BenchmarkTrialLoopTelemetryOff/On measure the steady-state per-trial
// cost with and without an armed counter shard; the delta is the
// instrumentation overhead (ISSUE budget: within a few percent; the CI
// bench gate enforces the committed bound).
func BenchmarkTrialLoopTelemetryOff(b *testing.B) {
	benchTrialLoop(b, false)
}

func BenchmarkTrialLoopTelemetryOn(b *testing.B) {
	benchTrialLoop(b, true)
}

func benchTrialLoop(b *testing.B, telemetryOn bool) {
	bm, err := benchprog.ByName("dekker")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Program(0)
	opts := bm.Options()
	if telemetryOn {
		opts.Telemetry = &telemetry.EngineCounters{}
	}
	r := engine.NewRunner(prog, opts)
	defer r.Close()
	strat := core.NewRandom()
	for i := 0; i < 20; i++ {
		r.Run(strat, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(strat, int64(i))
	}
}
