package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// runSeconds is how long one driver run measures (the --seconds the
// manifest advertises).
const runSeconds = 20

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads lists the benchmark's workloads in the order --all runs them.
var workloads = []workloadSpec{
	{"paper-quick", "the north-star job: Tables I-XII then Figures 3-8 at quick scale on one shared runner with cache, journal and ledger; the only workload where the sweep layer moves wall_s"},
	{"kernel-ref", "bare kernel replications at the reference config (k=2, 8 stages, rho=0.5, uniform): trace, krand, engine loop and engine statistics undiluted; no runner, observability off"},
	{"kernel-observed", "kernel-ref's configs and seeds with probe, histograms, 1-in-64 tracer, drift check and OpenMetrics on: where observability cost shows; Results must match kernel-ref bit for bit"},
	{"graph-hotspot", "topology-true graph engine on omega with a hot module at ~68% of tree saturation, committed and blocking modes: where routing-as-data and engine unification show"},
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists the untraced metrics. failed_frac is printed with them
// but is not listed: it is 0 on a healthy run, and the result line's
// failed/attempted fields already carry it.
var endToEnd = []endToEndSpec{
	{"wall_s", "s", "lower", 0.25},
	{"visits_per_s", "visits/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists the traced run's metrics. A layer a workload never calls
// reports 0 (no graph engine outside graph-hotspot; no runner and no
// experiments outside paper-quick).
var perLayer = []perLayerSpec{
	{"trace.busy_s", "s", "lower"},
	{"trace.msgs", "count", "higher"},
	{"trace.ns_per_msg", "ns", "lower"},
	{"trace.alloc_mb", "MB", "lower"},
	{"engine.busy_s", "s", "lower"},
	{"engine.visits", "count", "higher"},
	{"engine.ns_per_visit", "ns", "lower"},
	{"engine.alloc_mb", "MB", "lower"},
	{"engine.allocs", "count", "lower"},
	{"engine.useful_ratio", "ratio", "higher"},
	{"engine.stage1_err", "ratio", "lower"},
	{"graph.committed.busy_s", "s", "lower"},
	{"graph.committed.ns_per_visit", "ns", "lower"},
	{"graph.blocking.busy_s", "s", "lower"},
	{"graph.blocking.ns_per_visit", "ns", "lower"},
	{"graph.blocked_cycles", "count", "lower"},
	{"graph.saturated_switches", "count", "lower"},
	{"graph.alloc_mb", "MB", "lower"},
	{"stats.busy_s", "s", "lower"},
	{"stats.adds", "count", "higher"},
	{"stats.ns_per_add", "ns", "lower"},
	{"stats.merge_s", "s", "lower"},
	{"obs.overhead_ratio", "ratio", "lower"},
	{"obs.observed_engine_s", "s", "lower"},
	{"obs.bare_engine_s", "s", "lower"},
	{"obs.hist_ns_per_add", "ns", "lower"},
	{"obs.drift_check_s", "s", "lower"},
	{"obs.exposition_s", "s", "lower"},
	{"obs.exposition_bytes", "bytes", "lower"},
	{"obs.spans", "count", "higher"},
	{"sweep.points", "count", "higher"},
	{"sweep.cache_hits", "count", "higher"},
	{"sweep.reps_simulated", "count", "lower"},
	{"sweep.utilization", "ratio", "higher"},
	{"sweep.tail_s", "s", "lower"},
	{"sweep.key_ns_per_point", "ns", "lower"},
	{"sweep.journal_bytes", "bytes", "lower"},
	{"sweep.checkpoint_s", "s", "lower"},
	{"sweep.ledger_s", "s", "lower"},
	{"experiments.stage_tables_s", "s", "lower"},
	{"experiments.corr_table_s", "s", "lower"},
	{"experiments.total_tables_s", "s", "lower"},
	{"experiments.figures_s", "s", "lower"},
	{"experiments.render_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

// manifestJSON renders BENCHMARK.json from the definitions above.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeManifest writes BENCHMARK.json at the root of the checkout.
func writeManifest(root string) error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	path := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	return nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
