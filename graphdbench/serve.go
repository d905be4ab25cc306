package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"graphit/internal/server"
	"graphit/internal/wal"
)

// serverConfig is graphd's flag defaults plus the benchmark's one addition,
// a 2 ms batch window; social-update also serves its graph mutable and
// durable under dataDir. Every workload uses it, so a changed default
// shows on all of them.
func serverConfig(w *workload, dataDir string) server.Config {
	cfg := server.Config{
		DefaultBudget:    2 * time.Second,
		MaxBudget:        30 * time.Second,
		RoundTimeout:     5 * time.Second,
		StuckRounds:      256,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		CacheEntries:     1024,
		CacheTTL:         time.Minute,
		Coalesce:         true,
		BatchWindow:      2 * time.Millisecond,
		Metrics:          true,
		TraceRing:        256,
		WALSync:          wal.SyncAlways,
		WALSyncEvery:     100 * time.Millisecond,
	}
	if w.mutable {
		cfg.Mutable = true
		cfg.DataDir = dataDir
	}
	return cfg
}

// instance is one booted server behind a loopback listener, with the
// benchmark's HTTP client for it.
type instance struct {
	srv   *server.Server
	ts    *httptest.Server
	cl    *client
	setup time.Duration
}

// boot loads the graph files, builds the server (recovering its WAL when
// durable), starts it on loopback and waits for /readyz to answer 200. The
// returned setup time covers exactly that span. tweak adjusts the config
// and wrap the handler, for the instrumented phases; both may be nil.
func boot(w *workload, in *inputs, dataDir string, tweak func(*server.Config), wrap func(http.Handler) http.Handler) (*instance, error) {
	start := time.Now()
	graphs, err := loadGraphs(w, in)
	if err != nil {
		return nil, err
	}
	cfg := serverConfig(w, dataDir)
	cfg.Graphs = graphs
	if tweak != nil {
		tweak(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	inst := &instance{srv: srv, ts: httptest.NewServer(h)}
	inst.cl = newClient(inst.ts.URL)
	for {
		status, _, err := inst.cl.get("/readyz")
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Since(start) > 30*time.Second {
			inst.close()
			return nil, fmt.Errorf("server not ready after 30s (status %d, err %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
	inst.setup = time.Since(start)
	return inst, nil
}

// close stops the listener, drains the server and closes its graphs.
func (inst *instance) close() error {
	inst.ts.Close()
	inst.cl.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return inst.srv.Shutdown(ctx)
}

// client is the load generator's HTTP client: at most nproc connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

// idHeader carries the benchmark's request id to its own middleware.
const idHeader = "X-Bench-Id"

func newClient(base string) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) post(path, id string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(idHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) status() (*server.Status, error) {
	code, body, err := c.get("/statusz")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/statusz: status %d", code)
	}
	var st server.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/statusz: %w", err)
	}
	return &st, nil
}
