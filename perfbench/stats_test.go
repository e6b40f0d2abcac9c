package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(xs,
// n=4), the definition the benchmark's spreads are judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestTail checks that the reported percentile is the highest one with
// at least ten samples beyond it.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so tail must sort
		}
		return out
	}
	for _, c := range []struct {
		n     int
		ok    bool
		pct   float64
		value float64
	}{
		{19, false, 0, 0},
		{20, true, 50, 10},
		{39, true, 50, 20},
		{40, true, 75, 30},
		{199, true, 90, 180},
		{1000, true, 99, 990},
		{9999, true, 99, 9900},
		{10000, true, 99.9, 9990},
	} {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.pct || v != c.value {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.value, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tail(1..%d): only %d samples beyond p%v", c.n, beyond, pct)
			}
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	if got := covered([][2]int64{{10, 30}, {20, 50}, {60, 70}, {90, 120}}, 0, 100); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
	tr := newTracer()
	p := tr.begin("parent", 0, 1)
	c := tr.begin("child", p, 1)
	tr.end(c)
	tr.end(p)
	for _, lt := range tr.summary() {
		if lt.Count != 1 || lt.SelfMs > lt.TotalMs || lt.SelfMs < 0 {
			t.Errorf("summary %+v", lt)
		}
	}
}

// TestTracedPass records the spans of campaign workers that run
// concurrently: a worker span per strategy under its cell's span, and
// under it a sample of per-trial spans, the rest counted as dropped. The
// cells' self times stay known; the worker spans' do not.
func TestTracedPass(t *testing.T) {
	w := &appsWL{}
	if err := w.setup(1, ""); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rep := newReport()
	ps := w.pass(tr, 0, rep)
	layers := spanLayers(tr)
	cells := len(w.cells) * len(appsStrategies)
	cell, worker, trial := layers["harness.RunCampaign"], layers["harness.worker"], layers["harness.trial"]
	if cell.Count != cells || cell.Partial != 0 {
		t.Errorf("cell spans %+v, want %d with known self time", cell, cells)
	}
	if worker.Count < cells || worker.Count > cells*workers() || worker.Partial == 0 {
		t.Errorf("worker spans %+v for %d cells", worker, cells)
	}
	if trial.Count > worker.Count*maxSampled || trial.Count < maxSampled {
		t.Errorf("%d trial spans kept under %d worker spans", trial.Count, worker.Count)
	}
	if kept, dropped := tr.count(); kept-cells-worker.Count+dropped != int(ps.ops) {
		t.Errorf("%d spans kept and %d dropped for %d trials", kept, dropped, ps.ops)
	}
	for _, sp := range tr.spans {
		if sp.End < sp.Start {
			t.Fatalf("span %+v ends before it starts", sp)
		}
	}
}

// TestTracedCampaignKeepsLadderSpans runs a traced campaign pass, whose
// trials outnumber every span budget, and then the ladder: the spans of
// every cell and every ladder step are still kept.
func TestTracedCampaignKeepsLadderSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign pass and the ladder")
	}
	w := &campaignWL{}
	if err := w.setup(1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rep := newReport()
	ps := w.pass(tr, 0, rep)
	cells := len(w.benches) * len(strategyKinds)
	if ps.ops <= int64(cells*maxSampled) {
		t.Fatalf("a pass of %d trials does not outnumber the trial span budget", ps.ops)
	}
	newLadder(w.ladder(), 1, t.TempDir(), tr, rep).run(time.Millisecond)
	layers := spanLayers(tr)
	if cell := layers["harness.RunCampaign"]; cell.Count != cells || cell.Partial != 0 {
		t.Errorf("cell spans %+v, want %d with known self time", cell, cells)
	}
	for _, name := range []string{"ladder", "engine.Runner.Run/sc", "engine.Runner.Run/workload", "core.pctwm",
		"engine.Runner.Run/yield", "harness.RunCampaign/checkpoint", "checkpoint.Store", "coverage.Set",
		"axiom.CheckModel", "enumerate.BehaviorCensus/w1", "enumerate.Outcomes"} {
		if layers[name].Count == 0 {
			t.Errorf("no %s span kept; spans %v", name, layers)
		}
	}
	if len(rep.problems) > 0 {
		t.Errorf("failed checks: %v", rep.problems)
	}
}

// spanLayers returns the summary of tr's closed spans by name.
func spanLayers(tr *tracer) map[string]layerTime {
	layers := make(map[string]layerTime)
	for _, lt := range tr.summary() {
		layers[lt.Name] = lt
	}
	return layers
}
