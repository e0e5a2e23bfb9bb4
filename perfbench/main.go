// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four named workloads (or all of them, in one process) over a fixed,
// seed-ordered job list, verifies every job's output, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload repair-paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 times the job list untraced and reports the end-to-end
// metrics. --trace 1 runs the list twice more in the same process — once
// untraced, once with in-memory spans around each layer call — then
// replays every layer's public per-call cost on each job's own program
// and pool, and reports the per-layer metrics. Spans are written to
// .bench_build/spans/<workload>-seed<n>.jsonl when the run ends.
//
// See NOTES.md for why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload run's outcome: the metrics of the requested kind
// plus the job accounting every run prints.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// notes are human-readable lines printed before the JSON result
	// (percentile rank of the tail, digests, tracing overhead).
	notes []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a verification or execution failure; any failure makes
// the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.notef("FAIL: "+format, args...)
}

// workloadFunc runs one workload. seconds scales the fixed job list (see
// scaleList); traced selects the per-layer run.
type workloadFunc func(seed uint64, seconds int, traced bool, spans *spanLog) *report

var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"repair-paper", runRepairPaper},
	{"repair-deep", runRepairDeep},
	{"serve-store", runServeStore},
	{"learner-k16384", runLearner},
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Uint64("seed", 1, "seed ordering the fixed job list")
	seconds := flag.Int("seconds", 18, "nominal run length; scales the fixed job list")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be positive")
	}
	var names []string
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatalf("unknown --workload %q (want one of %s, or all)", *name, workloadNames())
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}

	out := &report{correct: true, metrics: map[string]metric{}}
	for _, w := range workloads {
		if *name != w.name && *name != "all" {
			continue
		}
		spans := newSpanLog()
		rep := w.run(*seed, *seconds, *trace == 1, spans)
		if *trace == 1 {
			path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err := spans.write(path); err != nil {
				rep.fail("writing spans: %v", err)
			} else {
				rep.notef("spans: %d written to %s", spans.len(), path)
			}
		}
		conform(rep, declared, *trace == 1)
		for _, n := range rep.notes {
			fmt.Printf("%s: %s\n", w.name, n)
		}
		keys := make([]string, 0, len(rep.metrics))
		for k := range rep.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := rep.metrics[k]
			fmt.Printf("%s/%s = %.6g %s\n", w.name, k, m.Value, m.Unit)
			key := k
			if *name == "all" {
				key = w.name + "/" + k
			}
			out.metrics[key] = m
		}
		out.correct = out.correct && rep.correct
		out.attempted += rep.attempted
		out.failed += rep.failed
	}
	if out.attempted == 0 {
		out.correct = false
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads the metric declarations the run must print.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// conform checks a workload's metrics against the declared set: an
// undeclared name or a wrong unit is a benchmark bug and fails the run.
// A missing end-to-end metric fails the run too. A per-layer metric
// whose layer this workload never calls (perLayer) is reported as 0 and
// named in a note.
func conform(rep *report, declared []specMetric, perLayer bool) {
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
	}
	for name, m := range rep.metrics {
		if u, ok := units[name]; !ok || u != m.Unit {
			rep.fail("metric %s (%s) is not declared with that unit", name, m.Unit)
		}
	}
	var absent []string
	for _, d := range declared {
		if _, ok := rep.metrics[d.Name]; ok {
			continue
		}
		if !perLayer {
			rep.fail("end-to-end metric %s missing", d.Name)
		}
		rep.set(d.Name, 0, d.Unit)
		absent = append(absent, d.Name)
	}
	if len(absent) > 0 {
		rep.notef("layers not exercised by this workload, reported as 0: %s", strings.Join(absent, " "))
	}
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
