package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"graphit"
	"graphit/internal/gen"
	"graphit/internal/graph"
	"graphit/internal/server"
)

// Graph shapes: the medium RD-sim and LJ-sim stand-ins of internal/bench.
const (
	roadSide  = 350 // 122,500 vertices, ~454k directed edges
	rmatScale = 15  // 32,768 vertices
	rmatEdges = 10  // edge factor: ~302k directed edges after dedup

	roadDelta   = 1 << 11 // ∆ for the road graph's eager_with_fusion runs
	socialDelta = 16      // ∆ for the social graph's lazy runs
)

// workload is one traffic mix replayed against one server configuration.
type workload struct {
	name string
	why  string
	// rate is the open-loop offered load, operations per second.
	rate float64
	// social selects the R-MAT graph; otherwise the road grid is served.
	social bool
	// mutable serves the social graph mutable and durable (POST /update).
	mutable bool
	// hotWarm is the number of most popular sources whose answers the
	// warm-up puts in the result cache, per algorithm (social-hot only).
	hotWarm int
	// warmOps is the number of mix operations the warm-up sends.
	warmOps int
	// checks is how many answers per phase are compared with the
	// sequential reference.
	checks int
}

var workloads = []*workload{
	{
		name: "road-fusion", rate: 8, warmOps: 24, checks: 12,
		why: "road grid, eager_with_fusion: the engine's round loop does almost all the work; every query misses the cache and bypasses batching",
	},
	{
		name: "social-hot", rate: 60, social: true, hotWarm: 64, warmOps: 60, checks: 24,
		why: "R-MAT graph, 85% of queries on a cached Zipf-skewed hot set: the qexec cache, coalesce and batch stages and the HTTP codec answer most queries",
	},
	{
		name: "social-update", rate: 30, social: true, mutable: true, warmOps: 40, checks: 24,
		why: "durable 64-op update batches beside lazy queries: livegraph and the WAL do the work and every epoch invalidates the cache",
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are the generated graph files of one run plus what the load
// generator needs to know about them. The program receives only the files.
type inputs struct {
	path string // road.bin or lj.bin
	n    int
	// sources are the vertices with out-edges, in a seeded popularity
	// order (index 0 is the most popular).
	sources []uint32
}

// makeInputs generates the workload's graph from seed and writes it to dir.
func makeInputs(w *workload, seed int64, dir string) (*inputs, error) {
	var g *graph.Graph
	var err error
	name := "road.bin"
	if w.social {
		name = "lj.bin"
		g, err = gen.RMAT(gen.DefaultRMAT(rmatScale, rmatEdges, seed))
	} else {
		g, err = gen.Road(gen.RoadOptions{Rows: roadSide, Cols: roadSide, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: seed})
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	in := &inputs{path: filepath.Join(dir, name), n: g.NumVertices()}
	if err := graph.WriteBinaryFile(in.path, g); err != nil {
		return nil, err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(uint32(v)) > 0 {
			in.sources = append(in.sources, uint32(v))
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	r.Shuffle(len(in.sources), func(i, j int) { in.sources[i], in.sources[j] = in.sources[j], in.sources[i] })
	return in, nil
}

// loadGraphs reads the workload's graph file the way graphd does and
// derives the served graph set: the road grid, or the directed R-MAT graph
// (plus its symmetrized copy for k-core on social-hot).
func loadGraphs(w *workload, in *inputs) (map[string]*graphit.Graph, error) {
	g, err := graph.LoadFile(in.path, graph.BuildOptions{})
	if err != nil {
		return nil, err
	}
	if !w.social {
		return map[string]*graphit.Graph{"road": g}, nil
	}
	gs := map[string]*graphit.Graph{"lj": g}
	if !w.mutable {
		sym, err := g.Symmetrized()
		if err != nil {
			return nil, err
		}
		gs["ljsym"] = sym
	}
	return gs, nil
}

// op is one operation of a mix: a query, or update batch number batch.
type op struct {
	q     *server.Query
	batch int
}

// mix draws a workload's operations. The draw sequence depends only on the
// seed and the stream label, never on timing. Sources are random; the
// operation kind and the algorithm come from two low-discrepancy sequences
// (additive recurrences with rationally independent steps, from seeded
// starts), so the mix's proportions hold closely in every stretch of a run
// rather than only on average, and a run's latency quantiles do not move
// with a lucky or unlucky share of expensive operations.
type mix struct {
	w    *workload
	in   *inputs
	r    *rand.Rand
	zipf *rand.Zipf
	upd  *updateStream // social-update only

	kind, algo float64 // the sequences' last values
	// sx, sy walk the road grid with the R2 sequence, so a run's sources
	// cover the grid evenly (a source's position sets its SSSP's rounds).
	sx, sy float64
}

// Steps of the two sequences: 1/golden ratio and sqrt(2)-1.
const (
	kindStep = 0.6180339887498949
	algoStep = 0.41421356237309515
)

// Steps of the R2 sequence: powers of the inverse plastic number.
const (
	r2StepX = 0.7548776662466927
	r2StepY = 0.5698402909980532
)

func (m *mix) nextKind() float64 { m.kind = math.Mod(m.kind+kindStep, 1); return m.kind }
func (m *mix) nextAlgo() float64 { m.algo = math.Mod(m.algo+algoStep, 1); return m.algo }

// Popularity of social-hot sources: a hotFrac share of the queries draws
// from the hot set (the first hotWarm sources, Zipf-skewed,
// P(rank k) ∝ (1+k)^-zipfS), the rest from the uniform long tail. The warm-up
// caches every hot answer, so about hotFrac of the queries hit the cache:
// the median falls well inside the hits and p90 well inside the misses.
const (
	zipfS   = 1.3
	hotFrac = 0.85
)

func newMix(w *workload, in *inputs, seed int64, stream string, upd *updateStream) *mix {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed*7919 + h))
	m := &mix{w: w, in: in, r: r, upd: upd, kind: r.Float64(), algo: r.Float64(), sx: r.Float64(), sy: r.Float64()}
	if w.hotWarm > 0 {
		m.zipf = rand.NewZipf(r, zipfS, 1, uint64(w.hotWarm-1))
	}
	return m
}

func (m *mix) uniformSource() uint32 { return m.in.sources[m.r.Intn(len(m.in.sources))] }

// gridSource is the road grid vertex at the R2 sequence's next point.
func (m *mix) gridSource() uint32 {
	m.sx, m.sy = math.Mod(m.sx+r2StepX, 1), math.Mod(m.sy+r2StepY, 1)
	return uint32(int(m.sy*roadSide)*roadSide + int(m.sx*roadSide))
}

// tailSource draws a source outside social-hot's hot set.
func (m *mix) tailSource() uint32 {
	return m.in.sources[m.w.hotWarm+m.r.Intn(len(m.in.sources)-m.w.hotWarm)]
}

func (m *mix) next() op {
	switch m.w.name {
	case "social-hot":
		v := m.in.sources[m.zipf.Uint64()]
		if m.nextKind() >= hotFrac {
			v = m.tailSource()
		}
		return op{q: hotQuery(m.nextAlgo(), v)}
	case "social-update":
		if m.nextKind() < 0.30 {
			return op{batch: m.upd.next()}
		}
	}
	return op{q: m.missQuery()}
}

// missQuery draws a query the cache cannot answer: the mix's query, with a
// source from social-hot's long tail.
func (m *mix) missQuery() *server.Query {
	r := m.r
	switch m.w.name {
	case "road-fusion":
		q := &server.Query{Graph: "road", Strategy: "eager_with_fusion", Delta: roadDelta,
			Src: m.gridSource(), Dst: uint32(r.Intn(m.in.n))}
		switch x := m.nextAlgo(); {
		case x < 0.60:
			q.Algo, q.Dst = "sssp", 0
		case x < 0.85:
			q.Algo = "ppsp"
		default:
			q.Algo = "astar"
		}
		return q
	case "social-hot":
		return hotQuery(m.nextAlgo(), m.tailSource())
	default: // social-update
		q := &server.Query{Graph: "lj", Algo: "sssp", Strategy: "lazy", Delta: socialDelta, Src: m.uniformSource()}
		if m.nextAlgo() < 0.40 {
			q.Algo, q.Dst = "ppsp", uint32(r.Intn(m.in.n))
		}
		return q
	}
}

// hotQuery maps a uniform draw x to social-hot's algorithm mix for source v:
// 60% lazy SSSP, 25% lazy wBFS, 15% k-core selecting v's coreness.
func hotQuery(x float64, v uint32) *server.Query {
	switch {
	case x < 0.60:
		return &server.Query{Graph: "lj", Algo: "sssp", Strategy: "lazy", Delta: socialDelta, Src: v}
	case x < 0.85:
		return &server.Query{Graph: "lj", Algo: "wbfs", Strategy: "lazy", Src: v}
	default:
		return &server.Query{Graph: "ljsym", Algo: "kcore", Strategy: "lazy_constant_sum", Vertices: []uint32{v}}
	}
}

// warmOps is the warm-up: every hot source under every algorithm (so the
// cache holds their answers before timing starts), then warmOps mix
// operations (which also fill the engine's pooled scratch).
func (m *mix) warmOps() []op {
	var ops []op
	for k := 0; k < m.w.hotWarm; k++ {
		for _, x := range []float64{0, 0.7, 0.9} {
			ops = append(ops, op{q: hotQuery(x, m.in.sources[k])})
		}
	}
	for i := 0; i < m.w.warmOps; i++ {
		ops = append(ops, m.next())
	}
	return ops
}
