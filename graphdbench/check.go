package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"graphit"
	"graphit/algo"
	"graphit/internal/graph"
	"graphit/internal/server"
)

// expected is the reference answer to one query, derived by the benchmark
// from the sequential reference's full result vector.
type expected struct {
	reached  int
	maxValue int64
	pairDist *int64
	values   map[string]int64
}

func expect(q *server.Query, vec []int64) expected {
	var e expected
	for _, v := range vec {
		if v != graphit.Unreached {
			e.reached++
			e.maxValue = max(e.maxValue, v)
		}
	}
	if d := vec[q.Dst]; d != graphit.Unreached {
		e.pairDist = &d
	}
	if len(q.Vertices) > 0 {
		e.values = make(map[string]int64, len(q.Vertices))
		for _, v := range q.Vertices {
			e.values[strconv.FormatUint(uint64(v), 10)] = vec[v]
		}
	}
	return e
}

// compare returns "" when resp carries exactly the expected reached,
// max_value, pair_dist and values fields for q, else what differs.
func compare(q *server.Query, resp *server.Response, e expected) string {
	spec, err := algo.Lookup(q.Algo)
	if err != nil {
		return err.Error()
	}
	if spec.Kind == algo.KindPair {
		got, want := "null", "null"
		if resp.PairDist != nil {
			got = strconv.FormatInt(*resp.PairDist, 10)
		}
		if e.pairDist != nil {
			want = strconv.FormatInt(*e.pairDist, 10)
		}
		if got != want {
			return fmt.Sprintf("pair_dist %s, reference %s", got, want)
		}
	} else {
		if resp.Reached == nil || *resp.Reached != e.reached {
			return fmt.Sprintf("reached %v, reference %d", deref(resp.Reached), e.reached)
		}
		if resp.MaxValue == nil || *resp.MaxValue != e.maxValue {
			return fmt.Sprintf("max_value %v, reference %d", deref(resp.MaxValue), e.maxValue)
		}
	}
	if len(resp.Values) != len(e.values) {
		return fmt.Sprintf("%d values, reference %d", len(resp.Values), len(e.values))
	}
	for k, want := range e.values {
		if got, ok := resp.Values[k]; !ok || got != want {
			return fmt.Sprintf("values[%s] = %d, reference %d", k, got, want)
		}
	}
	return ""
}

func deref[T any](p *T) any {
	if p == nil {
		return "null"
	}
	return *p
}

// perturb returns a copy of resp with one checked field changed.
func perturb(resp *server.Response) *server.Response {
	c := *resp
	bump := func(p *int64) *int64 { v := *p + 1; return &v }
	switch {
	case c.PairDist != nil:
		c.PairDist = bump(c.PairDist)
	case c.MaxValue != nil:
		c.MaxValue = bump(c.MaxValue)
	default:
		one := int64(1)
		c.PairDist = &one
	}
	return &c
}

// model reconstructs the served graphs at any epoch: the input graphs, plus
// (for the mutable graph) the acked update batches replayed in epoch order.
type model struct {
	graphs map[string]*graphit.Graph // epoch 0
	upd    *updateStream
	order  []int // acked batches in epoch order

	epoch uint64
	edges map[uint64]int32 // the mutable graph's edges at epoch
	at    *graphit.Graph   // the mutable graph built at epoch
}

func newModel(w *workload, in *inputs, upd *updateStream) (*model, error) {
	gs, err := loadGraphs(w, in)
	if err != nil {
		return nil, err
	}
	m := &model{graphs: gs, upd: upd}
	if upd != nil {
		// A broken epoch sequence is reported by epochCheck; the model
		// still replays what was acked, in epoch order.
		m.order, _ = upd.ackedInOrder(0)
	}
	return m, nil
}

// graphAt returns graph name at epoch; epochs must be requested in
// non-decreasing order after the first mutated one.
func (m *model) graphAt(name string, epoch uint64) (*graphit.Graph, error) {
	base := m.graphs[name]
	if epoch == 0 {
		return base, nil
	}
	if m.upd == nil || name != "lj" || epoch > uint64(len(m.order)) {
		return nil, fmt.Errorf("no acked batch produced %s epoch %d", name, epoch)
	}
	if m.edges == nil {
		m.edges = make(map[uint64]int32, base.NumEdges())
		for _, e := range base.Edges() {
			m.edges[uint64(e.Src)<<32|uint64(e.Dst)] = e.W
		}
	}
	if epoch < m.epoch {
		return nil, fmt.Errorf("model epochs requested out of order (%d after %d)", epoch, m.epoch)
	}
	if epoch == m.epoch && m.at != nil {
		return m.at, nil
	}
	for ; m.epoch < epoch; m.epoch++ {
		for _, o := range m.upd.ops(m.order[m.epoch]) {
			key := uint64(o.Src)<<32 | uint64(o.Dst)
			if o.Op == "remove" {
				delete(m.edges, key)
			} else {
				m.edges[key] = o.W
			}
		}
	}
	edges := make([]graph.Edge, 0, len(m.edges))
	for k, w := range m.edges {
		edges = append(edges, graph.Edge{Src: uint32(k >> 32), Dst: uint32(k), W: w})
	}
	g, err := graph.Build(edges, graph.BuildOptions{NumVertices: base.NumVertices(), Weighted: true})
	if err != nil {
		return nil, err
	}
	m.at = g
	return g, nil
}

// checkReport is the answer checker's outcome for one run.
type checkReport struct {
	checked    int
	mismatches []string
	selfCheck  error // nil when a perturbed answer was caught
}

// checkAnswers compares a seeded sample of successful query responses with
// the sequential reference on the model graph at each answer's epoch: up to
// limit/2 cache hits and the rest misses. A mismatch marks its sample wrong
// (counted as failed) and is reported with its request; nothing is
// filtered. The first checked answer is also perturbed, to show the
// comparison catches a wrong answer.
func checkAnswers(m *model, samples []*sample, limit int, seed int64) checkReport {
	var hits, misses []*sample
	for _, s := range samples {
		if s.op.q == nil || !s.ok() || s.resp == nil {
			continue
		}
		if s.resp.Cached {
			hits = append(hits, s)
		} else {
			misses = append(misses, s)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0xc4ec))
	pick := func(from []*sample, n int) []*sample {
		r.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
		return from[:min(n, len(from))]
	}
	chosen := pick(hits, limit/2)
	chosen = append(chosen, pick(misses, limit-len(chosen))...)
	sort.SliceStable(chosen, func(i, j int) bool { return chosen[i].resp.Epoch < chosen[j].resp.Epoch })

	var rep checkReport
	rep.selfCheck = fmt.Errorf("no answer was checked")
	for _, s := range chosen {
		q := s.op.q
		g, err := m.graphAt(q.Graph, s.resp.Epoch)
		if err == nil {
			var spec *algo.Spec
			if spec, err = algo.Lookup(q.Algo); err == nil {
				var ref *algo.QueryResult
				if ref, err = spec.Ref(g, q.Src, q.Dst); err == nil {
					e := expect(q, ref.Values)
					s.wrong = compare(q, s.resp, e)
					if rep.checked == 0 {
						rep.selfCheck = nil
						if compare(q, perturb(s.resp), e) == "" {
							rep.selfCheck = fmt.Errorf("a perturbed answer to %s passed the check", s.id)
						}
					}
				}
			}
		}
		if err != nil {
			s.wrong = "no reference: " + err.Error()
		}
		rep.checked++
		if s.wrong != "" {
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("%s %s src=%d dst=%d vertices=%v epoch=%d cached=%v: %s",
				s.id, q.Algo, q.Src, q.Dst, q.Vertices, s.resp.Epoch, s.resp.Cached, s.wrong))
		}
	}
	return rep
}
