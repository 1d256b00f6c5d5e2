package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	sb "repro"
)

// A model change bumps core.SimVersion; the benchmark then refuses to run
// until the reference is regenerated on purpose with -update.
func TestReferenceCoversSimVersion(t *testing.T) {
	ref, err := loadReference(sb.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cells == 0 || ref.SimCycles == 0 || ref.Insts == 0 || len(ref.Table1SHA256) != 64 {
		t.Errorf("reference entry for %s is incomplete: %+v", sb.SimVersion, ref)
	}
	if _, err := loadReference("no-such-version"); err == nil {
		t.Error("a version without an entry loaded")
	}
}

// BENCHMARK.json names exactly the workloads the program runs, and gives
// every metric a unit, a direction and, end to end, a bound.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, m := range spec.metrics() {
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
