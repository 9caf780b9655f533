package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/logic"
)

// Dictionary jobs use one pattern word per lane and one word per shard, so
// the 256-pattern job splits into four column shards; detect jobs use the
// full eight-word lanes and the coordinator's default shard size.
const (
	clusterDictWords   = 1
	clusterDetectWords = 8
	detectShardFaults  = 256
)

// detectJobs is how many detect jobs a pass runs. One takes under 30 ms
// and varies by a sixth from job to job on a 2-vCPU host, so minor_s is
// their mean over several jobs a pass.
const detectJobs = 4

// clusterRunner drives a Loopback coordinator with one in-process worker
// per CPU. Per pass it runs a journaled dictionary job, then detectJobs
// journaled detect jobs, each journal on local disk with real fsync. The
// job time is all of them; the dictionary job is the pass's one request,
// so a pass's p50 and p90 are its time, and the minor phase is one detect
// job, the mean of the pass's.
type clusterRunner struct {
	sc      scale
	seed    int64
	dir     string
	net     *circuit.Netlist
	pats    *logic.PatternSet
	faults  []fault.Fault
	compile time.Duration

	lb     *cluster.Loopback
	co     *cluster.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wire   atomic.Int64 // bytes the workers sent and received

	// Local references, built once after set-up, that every job must equal.
	refDigest uint64
	refDetect *fault.Result
	localDict time.Duration
	localDet  time.Duration
	dictAlloc uint64
	nonzero   float64

	// Traced-pass totals.
	traced struct {
		dict, detect time.Duration
		stats        cluster.Stats
		shardsNeeded int64
		journalBytes int64
		fsyncs       []time.Duration
		wire         int64
		alloc        uint64
	}
}

func setupCluster(e *env) (runner, error) {
	sc := e.scale
	r := &clusterRunner{sc: sc, seed: e.seed, dir: e.out}
	var err error
	if r.net, r.compile, err = build(sc.clusterCircuit); err != nil {
		return nil, err
	}
	r.pats = randomPatterns(r.net, sc.clusterPatterns, rand.New(rand.NewSource(e.seed)))
	r.faults = fault.Universe(r.net)

	r.lb = cluster.NewLoopback()
	r.co = cluster.New(cluster.Config{ShardWords: 1, ShardFaults: detectShardFaults})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.co.Serve(r.lb) // ErrClosed once close shuts the coordinator
	}()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < workers(); i++ {
		w := &cluster.Worker{ID: fmt.Sprintf("w%d", i), Dial: r.dial}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(ctx) // ends with ctx.Err() when close cancels it
		}()
	}
	for r.co.Stats().WorkersJoined < int64(workers()) {
		time.Sleep(time.Millisecond)
	}
	return r, nil
}

// dial opens a Loopback connection that counts the bytes crossing it.
func (r *clusterRunner) dial() (net.Conn, error) {
	c, err := r.lb.Dial()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &r.wire}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// journalFile is the journal's SyncWriter: a local file whose writes and
// fsyncs are counted and timed.
type journalFile struct {
	f      *os.File
	tr     *tracer
	parent int64
	mu     sync.Mutex
	bytes  int64
	syncs  []time.Duration
}

func (j *journalFile) Write(p []byte) (int, error) {
	n, err := j.f.Write(p)
	j.mu.Lock()
	j.bytes += int64(n)
	j.mu.Unlock()
	return n, err
}

func (j *journalFile) Sync() error {
	var err error
	d := j.tr.do(j.parent, "cluster.journal", "fsync", func(int64) { err = j.f.Sync() })
	j.mu.Lock()
	j.syncs = append(j.syncs, d)
	j.mu.Unlock()
	return err
}

// references builds the local dictionary and detection results every
// cluster job must equal bit for bit.
func (r *clusterRunner) references() error {
	t0 := time.Now()
	b0 := allocated()
	sigs, err := fault.DictionaryConcurrentWords(r.net, r.pats, r.faults, workers(), clusterDictWords)
	if err != nil {
		return err
	}
	r.dictAlloc = allocated() - b0
	r.localDict = time.Since(t0)
	r.refDigest = digest(sigs)
	r.nonzero = nonzeroShare(sigs)
	t0 = time.Now()
	if r.refDetect, err = fault.RunConcurrentWords(r.net, r.pats, r.faults, workers(), clusterDetectWords); err != nil {
		return err
	}
	r.localDet = time.Since(t0)
	return nil
}

// job runs one journaled coordinator job with a fresh journal file.
func (r *clusterRunner) job(tr *tracer, parent int64, name string, run func(context.Context, cluster.JobOptions) error) (time.Duration, *journalFile, error) {
	f, err := os.Create(filepath.Join(r.dir, fmt.Sprintf("journal-seed%d.wal", r.seed)))
	if err != nil {
		return 0, nil, err
	}
	defer os.Remove(f.Name())
	jf := &journalFile{f: f, tr: tr}
	var jobErr error
	d := tr.do(parent, "cluster", name, func(id int64) {
		jf.parent = id
		jobErr = run(context.Background(), cluster.JobOptions{Journal: cluster.NewJournal(jf)})
	})
	if err := f.Close(); err != nil && jobErr == nil {
		jobErr = err
	}
	return d, jf, jobErr
}

func (r *clusterRunner) pass(tr *tracer, rec *passRecord) error {
	if r.refDetect == nil {
		if err := r.references(); err != nil {
			return err
		}
	}
	root := tr.begin(0, "bench", "cluster.pass")
	defer tr.end(root)
	st0, wire0, b0 := r.co.Stats(), r.wire.Load(), allocated()

	var sigs []*fault.Signature
	dd, djf, err := r.job(tr, root, "Coordinator.DictionaryOpt", func(ctx context.Context, opt cluster.JobOptions) error {
		var err error
		sigs, err = r.co.DictionaryOpt(ctx, r.net, r.pats, r.faults, clusterDictWords, opt)
		return err
	})
	if err != nil {
		return fmt.Errorf("cluster dictionary job: %w", err)
	}
	jfs := []*journalFile{djf}
	var td time.Duration
	for i := 0; i < detectJobs; i++ {
		// Every detect job starts from a collected heap: the dictionary job
		// leaves over a gigabyte of garbage, and a collection would land in
		// a short detect job at random.
		runtime.GC()
		var det *fault.Result
		d, jf, err := r.job(tr, root, "Coordinator.DetectOpt", func(ctx context.Context, opt cluster.JobOptions) error {
			var err error
			det, err = r.co.DetectOpt(ctx, r.net, r.pats, r.faults, clusterDetectWords, opt)
			return err
		})
		if err != nil {
			return fmt.Errorf("cluster detect job: %w", err)
		}
		td += d
		jfs = append(jfs, jf)
		rec.gate(det.Detected == r.refDetect.Detected && slices.Equal(det.DetectedBy, r.refDetect.DetectedBy),
			"cluster detect: %d detected, local engine %d (or first-detection indices differ)", det.Detected, r.refDetect.Detected)
	}
	alloc := allocated() - b0
	rec.job += dd + td
	rec.request(dd)
	rec.minor = td / detectJobs
	rec.attempted += 1 + detectJobs

	sig := digest(sigs)
	rec.gate(sig == r.refDigest, "cluster dictionary digest %016x, local engine %016x", sig, r.refDigest)
	if pin, ok := clusterPins[r.sc.clusterCircuit]; ok && r.seed == defaultSeed {
		rec.gate(sig == pin, "cluster seed %d: dictionary digest %016x, pinned %016x", r.seed, sig, pin)
	}

	if tr != nil {
		st := r.co.Stats()
		t := &r.traced
		t.dict += dd
		t.detect += td
		t.stats.ShardsDispatched += st.ShardsDispatched - st0.ShardsDispatched
		t.stats.Redispatches += st.Redispatches - st0.Redispatches
		t.stats.Duplicates += st.Duplicates - st0.Duplicates
		t.stats.ShardFailures += st.ShardFailures - st0.ShardFailures
		t.shardsNeeded += int64(shards(r.pats.Words(), 1) + detectJobs*shards(len(r.faults), detectShardFaults))
		for _, jf := range jfs {
			t.journalBytes += jf.bytes
			t.fsyncs = append(t.fsyncs, jf.syncs...)
		}
		t.wire += r.wire.Load() - wire0
		t.alloc += alloc
	}
	return nil
}

// shards is how many shards of size unit cover n items.
func shards(n, unit int) int { return (n + unit - 1) / unit }

func (r *clusterRunner) layers(m map[string]float64, passes int) {
	p := float64(passes)
	t := &r.traced
	m["circuit.compile_ms"] = ms(r.compile)
	m["fault.dict_alloc_mb"] = float64(r.dictAlloc) / (1 << 20)
	m["fault.sig_nonzero_share"] = r.nonzero
	m["fault.detect_ms"] = ms(r.localDet)
	m["fault.local_dict_s"] = r.localDict.Seconds()
	m["cluster.dict_s"] = t.dict.Seconds() / p
	m["cluster.detect_s"] = t.detect.Seconds() / p / detectJobs
	m["cluster.shards_dispatched"] = float64(t.stats.ShardsDispatched) / p
	m["cluster.redispatches"] = float64(t.stats.Redispatches) / p
	m["cluster.duplicates"] = float64(t.stats.Duplicates) / p
	m["cluster.shard_failures"] = float64(t.stats.ShardFailures) / p
	if t.stats.ShardsDispatched > 0 {
		m["cluster.dispatch_useful_ratio"] = float64(t.shardsNeeded) / float64(t.stats.ShardsDispatched)
	}
	m["cluster.journal_bytes"] = float64(t.journalBytes) / p
	m["cluster.fsyncs"] = float64(len(t.fsyncs)) / p
	m["cluster.fsync_ms_p50"] = ms(median(t.fsyncs))
	var fsync time.Duration
	for _, d := range t.fsyncs {
		fsync += d
	}
	if jobs := t.dict + t.detect; jobs > 0 {
		m["cluster.fsync_share"] = float64(fsync) / float64(jobs)
	}
	m["cluster.wire_bytes"] = float64(t.wire) / p
	m["cluster.alloc_mb"] = float64(t.alloc) / p / (1 << 20)
	if r.localDict > 0 {
		m["cluster.overhead_ratio"] = t.dict.Seconds() / p / r.localDict.Seconds()
	}
}

func (r *clusterRunner) named(s summary) []string {
	return []string{
		fmt.Sprintf("dict_s %.4f s (journaled dictionary job, req_p50_ms, interquartile mean of %d)", s.reqMS(0.5)/1e3, len(s.reqs)),
		fmt.Sprintf("detect_s %.4f s (journaled detect job, minor_s: interquartile mean over %d passes of each pass's mean of %d)", s.minorS(), len(s.minors), detectJobs),
		fmt.Sprintf("local dictionary %.4f s, local detect %.4f s on the same inputs", r.localDict.Seconds(), r.localDet.Seconds()),
		fmt.Sprintf("dictionary digest %016x on %s, %d patterns", r.refDigest, r.sc.clusterCircuit, r.sc.clusterPatterns),
	}
}

func (r *clusterRunner) close() error {
	r.cancel()
	err := r.co.Close()
	r.lb.Close()
	r.wg.Wait()
	return err
}
