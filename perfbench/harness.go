package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// A run sets its workload up several times and reports the median, so a
// slow first set-up (cold page cache, lazy runtime state) does not decide
// setup_s alone: at least minSetups times, and cheap set-ups until they
// have taken setupBudget or maxSetups is reached.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

// env is what every workload receives: the run's arguments and its scale.
type env struct {
	name     string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for journals and span files
	itrserve string // daemon binary (serve workload)
	scale    scale
}

// runner is a set-up workload. Its passes are the measured unit: each pass
// runs the workload's job once, records the latency of every request (one
// call of the workload's main kind into the layer under test) and times
// its minor phase, the part that job_s alone would dilute, on its own.
type runner interface {
	pass(tr *tracer, rec *passRecord) error
	// layers adds the per-layer metrics of the traced passes to m.
	layers(m map[string]float64, passes int)
	// named returns the workload's metrics under their flow-specific names
	// (atpg_s, dict_s, serve_p90_ms, ...) for the human-readable report.
	named(s summary) []string
	close() error
}

// passRecord collects one pass's job time, minor-phase time, request
// latencies and outcome counts. The times cover the workload's calls into
// the program only, not the benchmark's own input handling and
// correctness checks.
type passRecord struct {
	job       time.Duration
	minor     time.Duration
	reqs      []time.Duration
	attempted int
	failed    int
	gates     []string // correctness gates that failed, with their reason
}

func (r *passRecord) request(d time.Duration) { r.reqs = append(r.reqs, d) }

// gate records a correctness check: a failed check counts one failed
// operation and is reported by name.
func (r *passRecord) gate(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// summary is one timed region: its job time, minor-phase time and request
// latencies per pass.
type summary struct {
	passes []time.Duration
	minors []time.Duration
	reqs   [][]time.Duration // per pass
	peakMB float64
	alloc  uint64 // bytes this process allocated in the region
	wall   time.Duration
	err    error // the pass that failed, which ended the region
}

// jobS is the interquartile mean of the passes' job times, in seconds.
func (s summary) jobS() float64 { return iqm(s.passes).Seconds() }

// minorS is the interquartile mean of the passes' minor-phase times, in
// seconds.
func (s summary) minorS() float64 { return iqm(s.minors).Seconds() }

// reqMS is the interquartile mean over passes of each pass's q-quantile
// request latency, in ms. Taking the quantile per pass keeps a burst of
// host noise in a few passes from moving the figure.
func (s summary) reqMS(q float64) float64 {
	var per []time.Duration
	for _, reqs := range s.reqs {
		per = append(per, quantile(reqs, q))
	}
	return ms(iqm(per))
}

// requests is the number of requests the region timed.
func (s summary) requests() int {
	n := 0
	for _, reqs := range s.reqs {
		n += len(reqs)
	}
	return n
}

type outcome struct {
	metrics      map[string]float64
	lines        []string
	attempted    int
	failed       int
	gateFailures []string
}

// run sets the workload up, measures an untraced region and, with tracing
// on, a traced region after it.
func run(setup func(*env) (runner, error), e *env) (*outcome, error) {
	var r runner
	var setups []time.Duration
	var total time.Duration
	for len(setups) < minSetups || (total < setupBudget && len(setups) < maxSetups) {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		total += setups[len(setups)-1]
	}

	out := &outcome{metrics: map[string]float64{}}
	plain := region(r, e, nil, out)
	var traced summary
	var tr *tracer
	if plain.err == nil && e.trace {
		tr = newTracer()
		traced = region(r, e, tr, out)
	}
	// Close before reading memory figures: a daemon's exist once it exited.
	if err := errors.Join(plain.err, traced.err, r.close()); err != nil {
		return nil, err
	}
	mem := memory{alloc: plain.alloc, peakHeapMB: plain.peakMB, maxRSSMB: maxRSSMB(), who: "this process"}
	if rm, ok := r.(remote); ok {
		mem = rm.memory()
	}

	out.metrics["setup_s"] = median(setups).Seconds()
	out.metrics["job_s"] = plain.jobS()
	out.metrics["minor_s"] = plain.minorS()
	out.metrics["req_p50_ms"] = plain.reqMS(0.50)
	out.metrics["req_p90_ms"] = plain.reqMS(0.90)
	out.metrics["peak_rss_mb"] = mem.maxRSSMB
	out.lines = append(out.lines,
		fmt.Sprintf("setup_s %.4f s (median of %d set-ups)", median(setups).Seconds(), len(setups)),
		fmt.Sprintf("job_s %.4f s (interquartile mean of %d passes in %.1f s; %d requests)", plain.jobS(), len(plain.passes), plain.wall.Seconds(), plain.requests()),
		fmt.Sprintf("minor_s %.4f s (interquartile mean of %d passes)", plain.minorS(), len(plain.minors)),
		fmt.Sprintf("req_p50_ms %.4f ms, req_p90_ms %.4f ms", plain.reqMS(0.5), plain.reqMS(0.9)),
		fmt.Sprintf("bytes_alloc %d B (%.1f MB per pass, %s)", mem.alloc, float64(mem.alloc)/float64(len(plain.passes))/(1<<20), mem.who),
		fmt.Sprintf("peak_heap_mb %.2f MB (%s)", mem.peakHeapMB, mem.who),
		fmt.Sprintf("peak_rss_mb %.2f MB (%s)", mem.maxRSSMB, mem.who))
	out.lines = append(out.lines, r.named(plain)...)

	if tr != nil {
		r.layers(out.metrics, len(traced.passes))
		for layer, s := range tr.selfTimes() {
			out.metrics[layer+".self_s"] = s / float64(len(traced.passes))
		}
		out.metrics["trace.overhead_job_ms"] = (traced.jobS() - plain.jobS()) * 1e3
		out.metrics["trace.overhead_p50_ms"] = traced.reqMS(0.50) - plain.reqMS(0.50)
		path, err := tr.write(e.out, e.name, e.seed)
		if err != nil {
			return nil, err
		}
		out.lines = append(out.lines, fmt.Sprintf("spans %d written to %s", tr.len(), path))
	}
	if out.attempted > 0 {
		out.metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
	}
	out.lines = append(out.lines, fmt.Sprintf("error_rate %.6f ratio (%d failed of %d attempted)",
		out.metrics["error_rate"], out.failed, out.attempted))
	return out, nil
}

// memory is the memory envelope of the process doing a workload's work.
type memory struct {
	alloc      uint64  // bytes allocated in the untraced region
	peakHeapMB float64 // largest sampled heap in the untraced region
	maxRSSMB   float64 // peak resident set over the process's life
	who        string
}

// remote is implemented by runners whose work happens in another process
// (the serve daemon): they report that process's memory. It is called
// after close.
type remote interface {
	memory() memory
}

// region runs passes until the next one would end well past e.seconds: a
// pass starts only if at least half of a typical pass fits. It always runs
// at least one pass.
func region(r runner, e *env, tr *tracer, out *outcome) summary {
	var s summary
	var heap heapSampler
	heap.start()
	t0, a0 := time.Now(), allocated()
	for len(s.passes) == 0 || time.Since(t0).Seconds()+median(s.passes).Seconds()/2 < e.seconds {
		rec := &passRecord{}
		runtime.GC() // each pass starts from the same heap, not the last pass's garbage
		if s.err = r.pass(tr, rec); s.err != nil {
			heap.stop()
			return s
		}
		s.passes = append(s.passes, rec.job)
		s.minors = append(s.minors, rec.minor)
		s.reqs = append(s.reqs, rec.reqs)
		out.attempted += rec.attempted
		out.failed += rec.failed
		out.gateFailures = append(out.gateFailures, rec.gates...)
	}
	s.wall = time.Since(t0)
	s.alloc = allocated() - a0
	s.peakMB = heap.stop()
	return s
}

// heapSampler tracks the peak heap of this process: the largest sampled
// size of live and not yet swept heap objects.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func (h *heapSampler) start() {
	h.stopc, h.done = make(chan struct{}), make(chan float64)
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		peak := uint64(0)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// allocated returns the bytes this process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB is the peak resident set size of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// iqm is the interquartile mean: the mean of the middle half of ds. Like a
// median it ignores the slowest and fastest quarter, where host noise
// lands; unlike a median it moves smoothly when pass times are a mixture
// of two modes (a cluster job whose four shards split 2+2 or 3+1 over two
// workers), instead of jumping from one mode to the other.
func iqm(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return sum / time.Duration(len(mid))
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks (the "inclusive" method), or 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
