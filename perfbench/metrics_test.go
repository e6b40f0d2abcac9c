package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric name against the benchmark's name
// rule and holds BENCHMARK.json to the metrics the program reports.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	for _, list := range [][]string{endToEndMetrics, perLayerMetrics, names(spec.EndToEnd), names(spec.PerLayer)} {
		seen := make(map[string]bool)
		for _, n := range list {
			if !metricName.MatchString(n) {
				t.Errorf("metric name %q does not match %s", n, metricName)
			}
			if seen[n] {
				t.Errorf("metric name %q listed twice", n)
			}
			seen[n] = true
		}
	}
	if want := slices.Sorted(slices.Values(endToEndMetrics)); !slices.Equal(names(spec.EndToEnd), want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", names(spec.EndToEnd), want)
	}
	if want := slices.Sorted(slices.Values(perLayerMetrics)); !slices.Equal(names(spec.PerLayer), want) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", names(spec.PerLayer), want)
	}
}
