package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"graphit"
)

// span is one traced interval of one request. Times are nanoseconds since
// the recorder's origin.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names, outermost first: the client's HTTP exchange, the benchmark
// middleware around the server's handler, the pipeline from the run
// context's creation to the engine's last RunEnd, the engine run, and each
// engine round.
const (
	spanHTTP   = "http"
	spanServer = "server"
	spanQexec  = "qexec.run"
	spanCore   = "core.run"
	spanRound  = "core.round"
)

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) add(name, req, parent string, start, end time.Time) {
	s := span{Name: name, Req: req, Parent: parent, Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

type reqKey struct{}

// middleware records a server span around the handler and passes the
// request id to the pipeline through the request context.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(idHeader)
		start := time.Now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), reqKey{}, id)))
		r.add(spanServer, id, spanHTTP, start, time.Now())
	})
}

// baseContext is installed as server.Config.BaseContext: it attaches an
// engine tracer bound to the request that leads the run. The pipeline
// replaces it whenever metrics or the trace ring are on, so the traced
// phase turns both off.
func (r *recorder) baseContext(ctx context.Context) context.Context {
	id, _ := ctx.Value(reqKey{}).(string)
	return graphit.WithTracer(ctx, &spanTracer{rec: r, req: id, qstart: time.Now()})
}

// spanTracer turns one run's engine events into core.run and core.round
// spans, and closes a qexec.run span at every RunEnd (a fallback re-run
// gets its own).
type spanTracer struct {
	rec      *recorder
	req      string
	qstart   time.Time
	runStart time.Time
}

func (t *spanTracer) RunStart(graphit.RunInfo) { t.runStart = time.Now() }

func (t *spanTracer) Round(ev graphit.RoundEvent) {
	end := time.Now()
	t.rec.add(spanRound, t.req, spanCore, end.Add(-ev.Wall), end)
}

func (t *spanTracer) RunEnd(graphit.Stats, error) {
	now := time.Now()
	t.rec.add(spanCore, t.req, spanQexec, t.runStart, now)
	t.rec.add(spanQexec, t.req, spanServer, t.qstart, now)
	t.qstart = now
}

// covered is the length of the union of spans clipped to [lo, hi].
func covered(spans []span, lo, hi int64) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64 = 0, lo
	for _, s := range spans {
		a, b := max(s.Start, end), min(s.End, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return time.Duration(total)
}

// selfTimes returns each layer's mean self time per request in µs: a
// span's duration minus the part its child spans cover. The five values
// add up to the mean HTTP exchange.
func selfTimes(spans []span) map[string]float64 {
	byReq := map[string]map[string][]span{}
	for _, s := range spans {
		m := byReq[s.Req]
		if m == nil {
			m = map[string][]span{}
			byReq[s.Req] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}
	sums := map[string]time.Duration{}
	n := 0
	for _, m := range byReq {
		if len(m[spanHTTP]) != 1 || len(m[spanServer]) != 1 {
			continue
		}
		n++
		h, srv := m[spanHTTP][0], m[spanServer][0]
		sums[spanHTTP] += h.dur() - covered(m[spanServer], h.Start, h.End)
		sums[spanServer] += srv.dur() - covered(m[spanQexec], srv.Start, srv.End)
		for _, q := range m[spanQexec] {
			sums[spanQexec] += q.dur() - covered(m[spanCore], q.Start, q.End)
		}
		for _, c := range m[spanCore] {
			sums[spanCore] += c.dur() - covered(m[spanRound], c.Start, c.End)
		}
		for _, r := range m[spanRound] {
			sums[spanRound] += r.dur()
		}
	}
	out := map[string]float64{}
	for _, name := range []string{spanHTTP, spanServer, spanQexec, spanCore, spanRound} {
		out[name] = ratio(us(sums[name]), float64(n))
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
