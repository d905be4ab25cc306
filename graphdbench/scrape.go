package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// prom is one scrape of a Prometheus text exposition: series -> value,
// where a series is the metric name followed by its label block.
type prom map[string]float64

func parseProm(text string) prom {
	p := prom{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// sum adds every series of metric name whose labels contain each of match.
func (p prom) sum(name string, match ...string) float64 {
	total := 0.0
	for series, v := range p {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		all := true
		for _, m := range match {
			all = all && strings.Contains(rest, m)
		}
		if all {
			total += v
		}
	}
	return total
}

// delta is the advance of a summed series between two scrapes.
func delta(before, after prom, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}

func scrapeProm(cl *client) (prom, error) {
	code, body, err := cl.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseProm(string(body)), nil
}

// proc is a snapshot of the process's CPU time and GC pause total.
type proc struct {
	cpu   time.Duration
	pause time.Duration
}

func readProc() proc {
	var ru syscall.Rusage
	var p proc
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		total := 0.0
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			total += float64(c) * (lo + hi) / 2
		}
		p.pause = time.Duration(total * float64(time.Second))
	}
	return p
}

// heapSampler tracks the peak live heap (as of each GC) while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB. The live heap is
// only known as of the last GC, so finish collects once more: retained
// memory that grew since the last cycle counts too.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	return float64(h.peak) / (1 << 20)
}

// hostTicks reads the host's CPU time counters: ticks stolen by the
// hypervisor and all ticks. Steal is how much of the CPU the host gave to
// someone else, the main source of run-to-run noise on a shared machine.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince returns the fraction of CPU ticks stolen since (steal0, total0).
func stealSince(steal0, total0 int64) float64 {
	steal, total := hostTicks()
	return ratio(float64(steal-steal0), float64(total-total0))
}

// cpuInfo reads the CPU model name and cache size for the provenance block.
func cpuInfo() (model, cache string) {
	model, cache = "unknown", "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return model, cache
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		switch k = strings.TrimSpace(k); {
		case !ok:
		case k == "model name" && model == "unknown":
			model = strings.TrimSpace(v)
		case k == "cache size" && cache == "unknown":
			cache = strings.TrimSpace(v)
		}
	}
	return model, cache
}
