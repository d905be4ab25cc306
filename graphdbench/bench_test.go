package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"graphit/algo"
	"graphit/internal/gen"
	"graphit/internal/livegraph"
	"graphit/internal/server"
)

// The checker must flag a perturbed answer and pass the true one, for every
// result kind the workloads request.
func TestCheckerCatchesPerturbedAnswers(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	sym, err := g.Symmetrized()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*server.Query{
		{Algo: "sssp", Src: 1},
		{Algo: "ppsp", Src: 1, Dst: 7},
		{Algo: "kcore", Vertices: []uint32{5}},
	} {
		spec, err := algo.Lookup(q.Algo)
		if err != nil {
			t.Fatal(err)
		}
		gg := g
		if spec.NeedsSymmetric {
			gg = sym
		}
		ref, err := spec.Ref(gg, q.Src, q.Dst)
		if err != nil {
			t.Fatal(err)
		}
		resp := &server.Response{Summary: algo.Summarize(spec, ref, q.Dst, q.Vertices)}
		e := expect(q, ref.Values)
		if msg := compare(q, resp, e); msg != "" {
			t.Errorf("%s: true answer rejected: %s", q.Algo, msg)
		}
		if compare(q, perturb(resp), e) == "" {
			t.Errorf("%s: perturbed answer accepted", q.Algo)
		}
	}
}

// Every generated batch must apply cleanly when up to updateWindow
// consecutive batches land in either order, and acked epochs must rise by
// one per batch.
func TestUpdateStreamBatchesAreValidInAnyWindowOrder(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	var sources []uint32
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(uint32(v)) > 0 {
			sources = append(sources, uint32(v))
		}
	}
	live := livegraph.New("g", g, livegraph.Config{})
	defer live.Close()
	u := newUpdateStream(g, sources, 11)
	r := rand.New(rand.NewSource(1))
	const batches = 200
	for k := 0; k < batches; k++ {
		u.next()
	}
	// Apply in pairs, swapping each pair at random: batch k+1 may land
	// before batch k, as two in-flight batches can.
	for k := 0; k < batches; k += updateWindow {
		order := []int{k, k + 1}
		if r.Intn(2) == 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, b := range order {
			u.waitTurn(b)
			res, err := live.ApplyBatch(liveOps(u.ops(b)))
			if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			u.finish(b, res.Epoch)
		}
	}
	acked, err := u.ackedInOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != batches {
		t.Fatalf("%d batches acked, want %d", len(acked), batches)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm(`# HELP x y
qexec_stage_duration_seconds_sum{stage="run"} 1.5
qexec_stage_duration_seconds_sum{stage="plan"} 0.25
qexec_faults_total{kind="panic"} 2
qexec_faults_total{kind="stuck"} 1
qexec_fallbacks_total 4
`)
	if got := p.sum("qexec_stage_duration_seconds_sum", `stage="run"`); got != 1.5 {
		t.Errorf("run stage = %v", got)
	}
	if got := p.sum("qexec_faults_total"); got != 3 {
		t.Errorf("faults = %v", got)
	}
	if got := p.sum("qexec_fallbacks_total"); got != 4 {
		t.Errorf("fallbacks = %v", got)
	}
}

// Self times split the HTTP span exactly: their sum is its duration.
func TestSelfTimesPartitionTheRequest(t *testing.T) {
	r := newRecorder()
	at := func(us int) time.Time { return r.origin.Add(time.Duration(us) * time.Microsecond) }
	r.add(spanHTTP, "a", "", at(0), at(100))
	r.add(spanServer, "a", spanHTTP, at(10), at(90))
	r.add(spanQexec, "a", spanServer, at(20), at(80))
	r.add(spanCore, "a", spanQexec, at(30), at(70))
	r.add(spanRound, "a", spanCore, at(35), at(45))
	r.add(spanRound, "a", spanCore, at(50), at(65))
	self := selfTimes(r.spans)
	want := map[string]float64{spanHTTP: 20, spanServer: 20, spanQexec: 20, spanCore: 15, spanRound: 25}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark reports, with
// the same units, and exactly its workloads.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the code", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in the code", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
