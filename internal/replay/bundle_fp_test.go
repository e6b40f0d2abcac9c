package replay

import (
	"encoding/json"
	"strings"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
)

// fpBundle records a failing lost-update trial with coverage on, so the
// bundle carries the original trial's behavior fingerprint.
func fpBundle(t *testing.T) *Bundle {
	t.Helper()
	prog := lostUpdateProgram()
	opts := engine.Options{Coverage: true}
	trace, found, ok := FindAndRecord(prog,
		func() engine.Strategy { return core.NewRandom() },
		lostUpdate, 500, 3, opts)
	if !ok {
		t.Fatal("no failing execution found")
	}
	if found.BehaviorFP == 0 {
		t.Fatal("coverage-armed run produced no behavior fingerprint")
	}
	b := NewBundle(prog, "random", 3, opts)
	b.Trace = trace
	b.Outcome = Summarize(found)
	b.Triage = TriageDeterministic
	b.BehaviorFP = found.BehaviorFP
	return b
}

// TestBundleBehaviorFPRoundTrip: a version-3 bundle preserves the
// behavior fingerprint through encode/decode, and Verify replays it with
// a matching fingerprint. Bundles written while the engine still had the
// legacy scheduler selector carry a "Baton" key in their options; such a
// bundle must decode and replay bit-identically on the one scheduler.
func TestBundleBehaviorFPRoundTrip(t *testing.T) {
	b := fpBundle(t)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 3`) && !strings.Contains(string(data), `"version":3`) {
		t.Fatalf("encoded bundle is not version 3:\n%s", data)
	}
	// Splice the key in through raw messages: a generic decode would
	// round the 64-bit fingerprint through float64.
	var doc, opts map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["options"], &opts); err != nil {
		t.Fatal(err)
	}
	opts["Baton"] = json.RawMessage("true")
	if doc["options"], err = json.Marshal(opts); err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	for name, in := range map[string][]byte{"current": data, "legacy-key": legacy} {
		back, err := DecodeBundle(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.BehaviorFP != b.BehaviorFP {
			t.Fatalf("%s: round trip lost the fingerprint: %#x vs %#x", name, back.BehaviorFP, b.BehaviorFP)
		}
		res, err := back.Verify(lostUpdateProgram())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Match {
			t.Fatalf("%s: replay diverged: derails=%d diffs=%v", name, res.Derails, res.Diffs)
		}
	}
}

// TestBundleBehaviorFPMismatchDiverges: a deterministic bundle whose
// recorded fingerprint disagrees with the replayed behavior is reported
// as diverged, naming the fingerprint pair.
func TestBundleBehaviorFPMismatchDiverges(t *testing.T) {
	b := fpBundle(t)
	b.BehaviorFP ^= 1
	res, err := b.Verify(lostUpdateProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("corrupted fingerprint still reproduced")
	}
	found := false
	for _, d := range res.Diffs {
		if strings.Contains(d, "behavior_fp") {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergence does not name the fingerprint: %v", res.Diffs)
	}
}

// TestBundleBehaviorFPNondeterministicExempt: NONDETERMINISTIC bundles
// record the diverged triage re-run, so the original trial's fingerprint
// is not a replay obligation.
func TestBundleBehaviorFPNondeterministicExempt(t *testing.T) {
	b := fpBundle(t)
	b.BehaviorFP ^= 1
	b.Triage = TriageNondeterministic
	res, err := b.Verify(lostUpdateProgram())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diffs {
		if strings.Contains(d, "behavior_fp") {
			t.Fatalf("nondeterministic bundle held to the original fingerprint: %v", res.Diffs)
		}
	}
}

// TestBundleVersion2Upgrades: a version-2 bundle (pre-coverage) decodes
// cleanly with a zero fingerprint, which exempts it from the check.
func TestBundleVersion2Upgrades(t *testing.T) {
	data := []byte(`{"version": 2, "program": "dekker", "program_threads": 2,
		"program_locs": 3, "strategy": "random", "seed": 7, "model": "rc11",
		"options": {"model": "rc11"},
		"outcome": {"steps": 0, "events": 0, "comm_events": 0, "races": 0},
		"first_outcome": {"steps": 0, "events": 0, "comm_events": 0, "races": 0},
		"triage": "DETERMINISTIC", "written_at": "2026-01-01T00:00:00Z"}`)
	b, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.BehaviorFP != 0 {
		t.Fatalf("v2 bundle decoded with fingerprint %#x, want 0", b.BehaviorFP)
	}
}
