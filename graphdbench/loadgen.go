package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"graphit/internal/server"
)

// sample is one operation sent to the server and what came back.
type sample struct {
	op   op
	id   string
	due  time.Time // when the schedule wanted it sent
	sent time.Time // when the generator got to it
	done time.Time
	// status is the HTTP status, 0 after a transport error (err).
	status int
	err    error
	resp   *server.Response       // queries
	upd    *server.UpdateResponse // updates
	// wrong is set by the answer checker on a mismatch.
	wrong string
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK && s.wrong == "" }

// latency is measured from the due time, so a stalled server also charges
// the wait it imposes on requests queued behind it.
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// send performs s's operation. Update batches wait for their turn in the
// update window (see updateStream) as part of their latency.
func send(cl *client, upd *updateStream, s *sample) {
	defer func() { s.done = time.Now() }()
	var body []byte
	if s.op.q != nil {
		s.status, body, s.err = cl.post("/query", s.id, s.op.q)
		if s.err == nil {
			var r server.Response
			if err := json.Unmarshal(body, &r); err != nil {
				s.err = fmt.Errorf("decoding /query response: %w", err)
				return
			}
			s.resp = &r
		}
		return
	}
	upd.waitTurn(s.op.batch)
	epoch := uint64(0)
	defer func() { upd.finish(s.op.batch, epoch) }()
	s.status, body, s.err = cl.post("/update", s.id, server.UpdateRequest{Graph: "lj", Ops: upd.ops(s.op.batch)})
	if s.err != nil {
		return
	}
	var r server.UpdateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		s.err = fmt.Errorf("decoding /update response: %w", err)
		return
	}
	s.upd = &r
	if s.status == http.StatusOK {
		epoch = r.Epoch
	}
}

// openLoop sends m's operations on a seeded Poisson schedule at rate ops/s
// for d, each from its own goroutine so a slow reply delays nothing else
// (the transport still caps the connections at nproc). The schedule is a
// Poisson process conditioned on its count, round(rate*d) arrivals at
// sorted uniform times, so every run sends the same number of operations.
func openLoop(cl *client, m *mix, rate float64, d time.Duration, prefix string) []*sample {
	r := rand.New(rand.NewSource(m.r.Int63()))
	n := int(math.Round(rate * d.Seconds()))
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(r.Int63n(int64(d)))
	}
	slices.Sort(offsets)
	samples := make([]*sample, n)
	for i := range samples {
		samples[i] = &sample{op: m.next(), id: fmt.Sprintf("%s%d", prefix, i)}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range samples {
		s.due = start.Add(offsets[i])
		time.Sleep(time.Until(s.due))
		s.sent = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(cl, m.upd, s)
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs clients concurrent callers, each sending m's next
// operation as soon as its previous one completes, until d has passed. It
// returns the samples and the wall time until the last caller finished.
func closedLoop(cl *client, m *mix, clients int, d time.Duration, prefix string) ([]*sample, time.Duration) {
	var mu sync.Mutex
	var samples []*sample
	next := func() *sample {
		mu.Lock()
		defer mu.Unlock()
		s := &sample{op: m.next(), id: fmt.Sprintf("%s%d", prefix, len(samples))}
		samples = append(samples, s)
		return s
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := next()
				s.due = time.Now()
				s.sent = s.due
				send(cl, m.upd, s)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// replay sends a fixed list of operations from clients concurrent callers
// (the warm-up).
func replay(cl *client, upd *updateStream, ops []op, clients int, prefix string) []*sample {
	samples := make([]*sample, len(ops))
	for i, o := range ops {
		samples[i] = &sample{op: o, id: fmt.Sprintf("%s%d", prefix, i)}
	}
	var wg sync.WaitGroup
	work := make(chan *sample)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				s.due = time.Now()
				s.sent = s.due
				send(cl, upd, s)
			}
		}()
	}
	for _, s := range samples {
		work <- s
	}
	close(work)
	wg.Wait()
	return samples
}
