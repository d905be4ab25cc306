// Command graphdbench is graphd's benchmark. It generates a workload's
// graph from a seed, boots the real internal/server handler in-process on a
// loopback listener, replays the workload's seeded traffic over HTTP, checks
// a sample of the answers against the sequential reference, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// benchmark instrumentation in the request path. With -trace 1 they are the
// per-layer ones: counter deltas from /metrics and /statusz, a traced phase
// whose spans are written to <dir>/spans/, and direct calls into the
// engine, livegraph and WAL packages. README.md explains every metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash graphdbench/run.sh --workload road-fusion --seed 1 --seconds 25 --trace 0
//	bash graphdbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are what a graphd user sees; the -trace 0 result carries these.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer split the work across graphd's modules; the -trace 1 result
// carries these.
var perLayer = []metricDef{
	{"http.transport_us", "us"},
	{"server.handler_us", "us"},
	{"server.codec_us", "us"},
	{"qexec.plan_us", "us"},
	{"qexec.cache_us", "us"},
	{"qexec.coalesce_wait_us", "us"},
	{"qexec.batch_wait_us", "us"},
	{"qexec.queue_wait_ms", "ms"},
	{"qexec.run_ms", "ms"},
	{"qexec.durable_wait_ms", "ms"},
	{"qexec.cache_hit_ratio", "ratio"},
	{"qexec.coalesced_ratio", "ratio"},
	{"qexec.runs_per_query", "ratio"},
	{"qexec.cache_invalidated_per_update", "ratio"},
	{"qexec.batch_lanes_per_run", "ratio"},
	{"qexec.batch_solo_ratio", "ratio"},
	{"qexec.shed_total", "count"},
	{"qexec.fallbacks_total", "count"},
	{"qexec.faults_total", "count"},
	{"core.run_ms.w1", "ms"},
	{"core.run_ms.w2", "ms"},
	{"core.w2_speedup", "ratio"},
	{"core.rounds_per_run", "count"},
	{"core.syncs_per_run", "count"},
	{"core.fused_iters_per_round", "ratio"},
	{"core.round_us", "us"},
	{"core.small_round_frac", "ratio"},
	{"core.relax_per_run", "count"},
	{"core.relax_per_edge", "ratio"},
	{"core.ns_per_relax", "ns"},
	{"core.allocs_per_run.w2", "count"},
	{"core.bytes_per_run.w2", "B"},
	{"core.multi8_ms", "ms"},
	{"core.multi8_speedup", "ratio"},
	{"livegraph.apply_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.bytes_per_op", "B"},
	{"livegraph.compactions", "count"},
	{"livegraph.compact_ms", "ms"},
	{"livegraph.checkpoint_ms", "ms"},
	{"livegraph.recover_ms", "ms"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.gc_pause_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.queries", "count"},
	{"loadgen.updates", "count"},
	{"trace.overhead_frac", "ratio"},
	{"self.http_us", "us"},
	{"self.server_us", "us"},
	{"self.qexec_us", "us"},
	{"self.core_run_us", "us"},
	{"self.core_round_us", "us"},
}

// result is one workload run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	// counts are the sample counts behind the metrics, for the report.
	counts map[string]int
	// notes are report lines: extra metrics, mismatches, failures.
	notes []string
	// server is the resolved server configuration, for the provenance block.
	server map[string]any
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// options are the command line.
type options struct {
	seed    int64
	seconds int
	trace   bool
	commit  string
	dir     string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed for the graph and the traffic")
		seconds = flag.Int("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		commit  = flag.String("commit", "unknown", "git commit of the measured tree, for the provenance block")
		dir     = flag.String("dir", ".bench_build", "directory for the run's files and the span output")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, commit: *commit, dir: *dir}
	if err := run(*name, opt); err != nil {
		fmt.Fprintln(os.Stderr, "graphdbench:", err)
		os.Exit(1)
	}
}

func run(name string, opt options) error {
	if opt.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var ws []*workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := lookupWorkload(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	// A run must end on its own; past this, exit without a result.
	limit := time.Duration(len(ws)) * 170 * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "graphdbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	total := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range ws {
		work := filepath.Join(opt.dir, "work", fmt.Sprintf("%s-seed%d-%d", w.name, opt.seed, os.Getpid()))
		if err := os.MkdirAll(work, 0o755); err != nil {
			return err
		}
		var res *result
		var err error
		if opt.trace {
			res, err = runLayers(w, opt, work)
		} else {
			res, err = runEndToEnd(w, opt, work)
		}
		if rmErr := os.RemoveAll(work); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		out, err := report(w, opt, res, defs)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		total.Correct = total.Correct && out.Correct
		total.Attempted += out.Attempted
		total.Failed += out.Failed
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "."
		}
		for k, v := range out.Metrics {
			total.Metrics[prefix+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// report prints the run's provenance, every metric with its unit and sample
// count, and the notes, and returns the result object.
func report(w *workload, opt options, res *result, defs []metricDef) (jsonResult, error) {
	cpu, cache := cpuInfo()
	prov := map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpu,
		"cpu_cache":  cache,
		"commit":     opt.commit,
		"server":     res.server,
	}
	b, err := json.Marshal(prov)
	if err != nil {
		return jsonResult{}, err
	}
	fmt.Printf("provenance %s\n", b)
	out := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("metric %-36s %14.6g %-6s n=%d\n", d.name, v, d.unit, res.counts[d.name])
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range res.notes {
		fmt.Println(strings.TrimRight(n, "\n"))
	}
	fmt.Printf("result %s correct=%v attempted=%d failed=%d failed_frac=%.6g\n",
		w.name, res.correct, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	return out, nil
}
