package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smallEnv returns a traced env over a shrunken copy of config.json,
// so a workload runs in seconds.
func smallEnv(t *testing.T) *env {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.BatchSharded.SetupReps = 1
	cfg.ServeMixed.SetupReps = 1
	cfg.BatchSharded.Records = 20000
	cfg.ServeMixed.BootRecords = 1500
	cfg.ServeMixed.IngestRecords = 400
	cfg.ServeMixed.TopKEvery = 200
	cfg.ServeMixed.QueryRate = 200
	cfg.ServeMixed.QuietQueries = 10
	return &env{cfg: cfg, seed: cfg.DefaultSeed, seconds: 0.5, trace: true, dir: t.TempDir()}
}

// TestCountersRepeat runs every workload twice at the same seed and
// requires the Algorithm-1 work counters to repeat exactly: the pinned
// cost model fixes the route.
func TestCountersRepeat(t *testing.T) {
	counters := []string{"hash.evals", "pairwise.comparisons", "hash.rounds", "shard.boundary_pairs"}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			var first *outcome
			for i := 0; i < 2; i++ {
				o, err := run(smallEnv(t))
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, o.failed, o.attempted, o.failures)
				}
				if o.values["hash.evals"] == 0 || o.values["hash.rounds"] == 0 {
					t.Fatalf("run %d: no hash work counted: %v", i, o.values)
				}
				if first == nil {
					first = o
					continue
				}
				for _, c := range counters {
					if a, b := first.values[c], o.values[c]; a != b {
						t.Errorf("%s: %v on the first run, %v on the second", c, a, b)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
