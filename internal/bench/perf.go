package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"graphit"
	"graphit/algo"
)

// PerfSchema is the schema tag carried by every PerfReport, bumped on
// incompatible changes so downstream tooling (the CI bench-smoke job, the
// BENCH_*.json trajectory at the repo root) can reject files it does not
// understand.
const PerfSchema = "graphit-bench/v1"

// PerfRecord is one measured benchmark: a (kernel, schedule, graph) triple
// with its wall-clock and allocation rates. Allocations are process-wide
// deltas over the measured iterations, so they include per-round garbage
// produced on engine workers — exactly the memory-subsystem signal the
// paper's kernels live or die on.
type PerfRecord struct {
	// Name identifies the kernel and schedule, e.g. "sssp/lazy-pull".
	Name string `json:"name"`
	// Graph is the dataset stand-in name (Table 3), e.g. "LJ-sim".
	Graph string `json:"graph"`
	// Iters is the number of measured iterations behind the per-op rates.
	Iters       int64 `json:"iters"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Rounds is the run's bulk-synchronous round count — the denominator
	// turning allocs/op into allocs/round.
	Rounds int64 `json:"rounds"`
	// Extra carries experiment-specific rates (e.g. the batch experiment's
	// lanes-per-window and speedup figures). Optional and additive: readers
	// that do not know a key ignore it.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// PerfReport is the machine-readable perf trajectory emitted by
// `benchtab -exp perf -json <path>`: one record per benchmark, plus enough
// environment to interpret the numbers. Baseline, when present, holds the
// same benchmarks measured on an earlier revision (the "before" arm), so a
// single committed BENCH_*.json carries a before/after pair.
type PerfReport struct {
	Schema    string       `json:"schema"`
	PR        string       `json:"pr,omitempty"`
	Scale     string       `json:"scale"`
	GoVersion string       `json:"go"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Workers   int          `json:"workers"`
	Records   []PerfRecord `json:"benchmarks"`
	Baseline  *PerfReport  `json:"baseline,omitempty"`
}

// Validate checks the report against the PerfSchema contract: schema tag,
// environment fields, at least one record, and per-record name/graph
// presence, positive iteration counts, and non-negative rates. The baseline,
// when present, is validated recursively.
func (r *PerfReport) Validate() error {
	if r.Schema != PerfSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, PerfSchema)
	}
	if r.GoVersion == "" || r.GOOS == "" || r.GOARCH == "" {
		return fmt.Errorf("bench: report missing go/goos/goarch environment")
	}
	if r.Workers < 1 {
		return fmt.Errorf("bench: report has workers=%d, want >= 1", r.Workers)
	}
	if len(r.Records) == 0 {
		return fmt.Errorf("bench: report has no benchmarks")
	}
	seen := make(map[string]bool, len(r.Records))
	for i, rec := range r.Records {
		if rec.Name == "" || rec.Graph == "" {
			return fmt.Errorf("bench: record %d missing name or graph", i)
		}
		key := rec.Name + "@" + rec.Graph
		if seen[key] {
			return fmt.Errorf("bench: duplicate record %s", key)
		}
		seen[key] = true
		if rec.Iters < 1 {
			return fmt.Errorf("bench: %s: iters=%d, want >= 1", key, rec.Iters)
		}
		if rec.NsPerOp < 0 || rec.AllocsPerOp < 0 || rec.BytesPerOp < 0 || rec.Rounds < 0 {
			return fmt.Errorf("bench: %s: negative rate", key)
		}
	}
	if r.Baseline != nil {
		if err := r.Baseline.Validate(); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	return nil
}

// WriteFile marshals the report (indented, trailing newline) to path.
func (r *PerfReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerfReport loads and validates a report written by WriteFile.
func ReadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// PerfOptions tunes the measurement loop. The zero value selects defaults
// sized for benchtab; tests shrink MinTime to keep the suite fast.
type PerfOptions struct {
	// MinTime is the minimum measured wall-clock per benchmark (default
	// 300ms): iterations repeat until it is reached or MaxIters runs out.
	MinTime time.Duration
	// MaxIters bounds the iteration count (default 1000).
	MaxIters int
	// PR labels the report (default "dev").
	PR string
}

func (o *PerfOptions) normalize() {
	if o.MinTime <= 0 {
		o.MinTime = 300 * time.Millisecond
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 1000
	}
	if o.PR == "" {
		o.PR = "dev"
	}
}

// perfCase is one benchmark body: a closure over a prepared (graph,
// schedule) pair returning the run's Stats.
type perfCase struct {
	name  string
	graph string
	run   func() (graphit.Stats, error)
}

// measure runs one case to a stable per-op rate: a warmup iteration (which
// also primes the engine's scratch pool, so the steady state is what's
// measured), then batches of iterations bracketed by runtime.ReadMemStats
// until MinTime of measured work accumulates.
func measure(ctx context.Context, c perfCase, opt PerfOptions) (PerfRecord, error) {
	st, err := c.run() // warmup; also yields the representative Stats
	if err != nil {
		return PerfRecord{}, fmt.Errorf("%s@%s: %w", c.name, c.graph, err)
	}
	var ms0, ms1 runtime.MemStats
	var iters int64
	var elapsed time.Duration
	var mallocs, bytes uint64
	for elapsed < opt.MinTime && iters < int64(opt.MaxIters) {
		if err := ctx.Err(); err != nil {
			if iters > 0 {
				break // keep the partial measurement
			}
			return PerfRecord{}, err
		}
		batch := int64(1)
		if iters > 0 {
			// Grow batches so ReadMemStats (a stop-the-world) stays a
			// vanishing fraction of the measurement.
			batch = iters
			if rem := int64(opt.MaxIters) - iters; batch > rem {
				batch = rem
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := int64(0); i < batch; i++ {
			if _, err := c.run(); err != nil {
				return PerfRecord{}, fmt.Errorf("%s@%s: %w", c.name, c.graph, err)
			}
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms1)
		iters += batch
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	return PerfRecord{
		Name: c.name, Graph: c.graph, Iters: iters,
		NsPerOp:     elapsed.Nanoseconds() / iters,
		AllocsPerOp: int64(mallocs) / iters,
		BytesPerOp:  int64(bytes) / iters,
		Rounds:      st.Rounds,
	}, nil
}

// perfCases builds the measured roster: the lazy-engine kernels the paper's
// Figure 9 / Table 7 analysis centers on — SSSP under the hybrid and
// dense-pull lazy schedules, wBFS (lazy), and k-core (lazy constant-sum) —
// on every headline bench graph.
func perfCases(ctx context.Context, s Scale) ([]perfCase, error) {
	ds, err := All(s)
	if err != nil {
		return nil, err
	}
	var cases []perfCase
	for _, d := range ds {
		d := d
		src := sources(d, 1)[0]
		lazyHybrid := graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("lazy").
			ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp).
			ConfigApplyDirection("DensePull-SparsePush")
		lazyPull := graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("lazy").
			ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp).
			ConfigApplyDirection("DensePull")
		cases = append(cases,
			perfCase{"sssp/lazy-hybrid", d.Name, func() (graphit.Stats, error) {
				r, err := algo.SSSPContext(ctx, d.Graph, src, lazyHybrid)
				if err != nil {
					return graphit.Stats{}, err
				}
				return r.Stats, nil
			}},
			perfCase{"sssp/lazy-pull", d.Name, func() (graphit.Stats, error) {
				r, err := algo.SSSPContext(ctx, d.Graph, src, lazyPull)
				if err != nil {
					return graphit.Stats{}, err
				}
				return r.Stats, nil
			}},
		)
		lw, err := d.LogWeighted()
		if err != nil {
			return nil, err
		}
		wbfsSched := graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy")
		cases = append(cases, perfCase{"wbfs/lazy", d.Name, func() (graphit.Stats, error) {
			r, err := algo.WBFSContext(ctx, lw, src, wbfsSched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		}})
		sym, err := d.Symmetrized()
		if err != nil {
			return nil, err
		}
		kcSched := graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy_constant_sum")
		cases = append(cases, perfCase{"kcore/lazy-constant-sum", d.Name, func() (graphit.Stats, error) {
			r, err := algo.KCoreContext(ctx, sym, kcSched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		}})
	}
	return cases, nil
}

// Perf measures the lazy-engine perf trajectory (time, allocations, rounds
// per kernel and graph) and returns both a printable table and the
// machine-readable report `benchtab -json` persists.
func Perf(ctx context.Context, s Scale, opt PerfOptions) (*Table, *PerfReport, error) {
	opt.normalize()
	t := &Table{
		Title:  "Perf trajectory: lazy-engine kernels (time and steady-state allocation)",
		Header: []string{"benchmark", "graph", "ns/op", "allocs/op", "B/op", "rounds"},
	}
	cases, err := perfCases(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	rep := &PerfReport{
		Schema:    PerfSchema,
		PR:        opt.PR,
		Scale:     string(s),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workers:   runtime.GOMAXPROCS(0),
	}
	for _, c := range cases {
		rec, err := measure(ctx, c, opt)
		if err != nil {
			return nil, nil, err
		}
		rep.Records = append(rep.Records, rec)
		t.AddRow(rec.Name, rec.Graph,
			fmt.Sprintf("%d", rec.NsPerOp),
			fmt.Sprintf("%d", rec.AllocsPerOp),
			fmt.Sprintf("%d", rec.BytesPerOp),
			fmt.Sprintf("%d", rec.Rounds))
	}
	t.Note("allocations are process-wide deltas per run (engine workers included), after a pool-warming iteration")
	return t, rep, nil
}
