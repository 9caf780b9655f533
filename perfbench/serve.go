package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hdc"
	"repro/internal/outlier"
	"repro/internal/serve"
	"repro/internal/wafer"
)

const (
	epClassify = "/v1/wafer/classify"
	epScore    = "/v1/outlier/score"
	epDecide   = "/v1/adaptive/decide"
)

// serveRunner drives a real itrserve -demo daemon. Per pass it runs one
// round of the request stream as an open loop at a fixed rate (latency,
// timed from when each request was due) and then one round as a closed
// loop over one connection per CPU (saturation). A request is one
// open-loop HTTP request; the minor phase is the open-loop requests'
// summed latency; the job is the closed-loop round.
type serveRunner struct {
	sc     scale
	seed   int64
	base   string
	cmd    *exec.Cmd
	exited chan error
	client *http.Client

	// The oracle: models trained in-process with the daemon's seed, and the
	// expected answer to every request body of the pool.
	reg    *serve.Registry
	maps   []*wafer.Map
	xs     [][]float64
	bodies map[string][][]byte
	want   map[string][]any

	rng   *rand.Rand // shuffles each round of the request stream
	queue []request  // rest of the current round

	// The daemon's memory over the untraced passes.
	alloc    float64
	peakHeap float64

	// Traced-pass totals.
	traced struct {
		replayed                     bool
		predictUS, encodeUS, matchUS float64
		scoreUS                      float64
		buckets                      [24]int64
		shed, errors, panics, reqs   int64
		alloc, gcs                   float64
		late, bursts                 []time.Duration
	}
}

func setupServe(e *env) (runner, error) {
	sc := e.scale
	r := &serveRunner{sc: sc, seed: e.seed, exited: make(chan error, 1)}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	r.base = "http://" + addr
	r.cmd = exec.Command(e.itrserve, "-demo", "-quiet", "-addr", addr,
		"-seed", strconv.FormatInt(e.seed, 10), "-dim", strconv.Itoa(sc.serveDim), "-size", strconv.Itoa(sc.serveGrid))
	r.cmd.Stderr = os.Stderr
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start itrserve: %w", err)
	}
	go func() { r.exited <- r.cmd.Wait() }()

	// The daemon trains its demo models while this process trains the
	// oracle's copy and generates the request pool.
	r.reg = serve.NewRegistry()
	if err := serve.InstallDemoModels(r.reg, serve.DemoConfig{Dim: sc.serveDim, GridSize: sc.serveGrid, Seed: e.seed}); err != nil {
		r.close()
		return nil, err
	}
	r.pool(e.seed)
	tr := &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers()}
	r.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	if err := r.waitReady(); err != nil {
		r.close()
		return nil, err
	}
	r.rng = rand.New(rand.NewSource(e.seed + 1))
	return r, nil
}

// freeAddr returns a loopback address with a port free at the time of call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// pool generates the request bodies and the oracle's answer to each.
func (r *serveRunner) pool(seed int64) {
	// The maps come from the generator the demo model is trained on, which
	// gives every defect class the same count; the repository holds no
	// other class distribution. Predict's cost depends on the class (a
	// near-full map costs fifty times an empty one), so a fixed count per
	// class also keeps the load the same whatever the seed.
	wcfg := wafer.DefaultConfig()
	wcfg.Size = r.sc.serveGrid
	r.maps = wafer.GenerateDataset(r.sc.serveMapsPerClass, wcfg, seed).Maps
	lcfg := outlier.DefaultLotConfig()
	lcfg.Devices = r.sc.serveScores + r.sc.serveDecides
	// Enough outliers that every decision occurs and is checked; a score
	// costs the same whatever the vector holds.
	lcfg.DefectRate = 0.2
	lot := outlier.Synthesize(lcfg, seed)
	wm, om := r.reg.Wafer(), r.reg.Outlier()
	r.bodies = map[string][][]byte{}
	r.want = map[string][]any{}
	for _, m := range r.maps {
		cells := make([][]uint8, m.Size)
		for row := range cells {
			cells[row] = m.Cells[row*m.Size : (row+1)*m.Size]
		}
		r.bodies[epClassify] = append(r.bodies[epClassify], mustJSON(serve.WaferClassifyRequest{Cells: cells}))
		cls := wm.Cls.Predict(m)
		r.want[epClassify] = append(r.want[epClassify], serve.WaferClassifyResponse{
			ClassID: cls, Class: wafer.Class(cls).String(), ModelVersion: wm.Meta.Version})
	}
	for _, x := range lot.X {
		r.xs = append(r.xs, x)
		body := mustJSON(serve.OutlierScoreRequest{X: x})
		r.bodies[epScore] = append(r.bodies[epScore], body)
		r.bodies[epDecide] = append(r.bodies[epDecide], body)
		score := om.Scorer.Score(x)
		r.want[epScore] = append(r.want[epScore], serve.OutlierScoreResponse{
			Score: score, Reject: score > om.RejectThreshold, RejectThreshold: om.RejectThreshold,
			RetestThreshold: om.RetestThreshold, Method: om.Method, ModelVersion: om.Meta.Version})
		decision := serve.DecisionContinue
		switch {
		case score > om.RejectThreshold:
			decision = serve.DecisionStop
		case score > om.RetestThreshold:
			decision = serve.DecisionRetest
		}
		r.want[epDecide] = append(r.want[epDecide], serve.AdaptiveDecideResponse{
			Decision: decision, Score: score, RejectThreshold: om.RejectThreshold,
			RetestThreshold: om.RetestThreshold, Method: om.Method, ModelVersion: om.Meta.Version})
	}
}

func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are marshalled
	}
	return buf
}

// waitReady polls /readyz until the daemon has installed its models.
func (r *serveRunner) waitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-r.exited:
			r.exited <- err
			return fmt.Errorf("itrserve exited during start-up: %v", err)
		default:
		}
		resp, err := r.client.Get(r.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("itrserve not ready after 60s")
}

// request is one entry of the load: an endpoint and a pool index.
type request struct {
	ep string
	i  int
}

// roundSize is the length of one round of the request stream.
func (sc scale) roundSize() int {
	return int(wafer.NumClasses)*sc.serveMapsPerClass + sc.serveScores + sc.serveDecides
}

// nextRequest returns the next request of the stream. The stream is a
// sequence of rounds, each a seeded shuffle of one classification of every
// map and one score or decide of every measurement vector, so the mix is
// exact over every round.
func (r *serveRunner) nextRequest() request {
	if len(r.queue) == 0 {
		for i := range r.maps {
			r.queue = append(r.queue, request{ep: epClassify, i: i})
		}
		for k, i := range r.rng.Perm(len(r.xs)) {
			ep := epScore
			if k >= r.sc.serveScores {
				ep = epDecide
			}
			r.queue = append(r.queue, request{ep: ep, i: i})
		}
		r.rng.Shuffle(len(r.queue), func(a, b int) { r.queue[a], r.queue[b] = r.queue[b], r.queue[a] })
	}
	q := r.queue[0]
	r.queue = r.queue[1:]
	return q
}

// reply is the daemon's answer to one request.
type reply struct {
	status int
	body   []byte
	err    error
}

// post sends one request and reads the answer.
func (r *serveRunner) post(q request) reply {
	resp, err := r.client.Post(r.base+q.ep, "application/json", bytes.NewReader(r.bodies[q.ep][q.i]))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err}
}

// check compares an answer with the oracle's.
func (r *serveRunner) check(q request, a reply) error {
	if a.err != nil {
		return a.err
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.ep, a.status, bytes.TrimSpace(a.body))
	}
	var got any
	var err error
	switch q.ep {
	case epClassify:
		var v serve.WaferClassifyResponse
		err = json.Unmarshal(a.body, &v)
		got = v
	case epScore:
		var v serve.OutlierScoreResponse
		err = json.Unmarshal(a.body, &v)
		got = v
	default:
		var v serve.AdaptiveDecideResponse
		err = json.Unmarshal(a.body, &v)
		got = v
	}
	if err != nil {
		return fmt.Errorf("%s: %w", q.ep, err)
	}
	if want := r.want[q.ep][q.i]; got != want {
		return fmt.Errorf("%s item %d: got %+v, in-process model says %+v", q.ep, q.i, got, want)
	}
	return nil
}

// served is one finished open-loop request.
type served struct {
	lat time.Duration
	ans reply
}

func (r *serveRunner) pass(tr *tracer, rec *passRecord) error {
	before, err := r.vars()
	if err != nil {
		return err
	}

	// Open loop: request k is due at start + k/rate whatever happened to
	// the ones before it; one sender per connection. No bench span covers
	// the loop, whose time is mostly the generator's sleeps; each request
	// is a root span.
	n := r.sc.roundSize()
	qs := make([]request, n)
	for k := range qs {
		qs[k] = r.nextRequest()
	}
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job, n) // the generator never blocks: queueing shows as latency
	results := make([]served, n)
	late := make([]time.Duration, n)
	var wg sync.WaitGroup
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				id := tr.begin(0, "serve", qs[j.k].ep)
				ans := r.post(qs[j.k])
				tr.end(id)
				results[j.k] = served{lat: time.Since(j.due), ans: ans}
			}
		}()
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / r.sc.serveRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[k] = time.Since(due)
		jobs <- job{k: k, due: due}
	}
	close(jobs)
	wg.Wait()
	root := tr.begin(0, "bench", "serve.pass")
	defer tr.end(root)
	for k, s := range results {
		err := r.check(qs[k], s.ans)
		rec.attempted++
		rec.gate(err == nil, "serve open loop: %v", err)
		rec.request(s.lat)
		rec.minor += s.lat
	}

	after, err := r.vars()
	if err != nil {
		return err
	}

	// Closed loop: one client per connection sends its next request as soon
	// as the last one is answered.
	burst := make([]request, r.sc.roundSize())
	for k := range burst {
		burst[k] = r.nextRequest()
	}
	errs := make([]error, len(burst))
	var next atomic.Int64
	t0 := time.Now()
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(burst); k = int(next.Add(1) - 1) {
				id := tr.begin(root, "serve", burst[k].ep)
				ans := r.post(burst[k])
				tr.end(id)
				errs[k] = r.check(burst[k], ans)
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	rec.job += d
	for _, err := range errs {
		rec.attempted++
		rec.gate(err == nil, "serve closed loop: %v", err)
	}
	end, err := r.vars()
	if err != nil {
		return err
	}

	if tr == nil {
		r.alloc += end.totalAlloc - before.totalAlloc
		r.peakHeap = max(r.peakHeap, after.heapAlloc, end.heapAlloc)
	} else {
		t := &r.traced
		for i := range t.buckets {
			t.buckets[i] += after.buckets[i] - before.buckets[i]
		}
		t.shed += end.shed - before.shed
		t.errors += end.errors - before.errors
		t.panics += end.panics - before.panics
		t.reqs += end.requests - before.requests
		t.alloc += end.totalAlloc - before.totalAlloc
		t.gcs += end.numGC - before.numGC
		t.late = append(t.late, late...)
		t.bursts = append(t.bursts, d)
		if !t.replayed {
			t.replayed = true
			if err := r.replay(tr, root, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay times the model layers in-process on the pool's inputs: the same
// calls the daemon makes per request, without HTTP or batching. The
// classifier's encoder and associative memory are rebuilt from its public
// serialized form so each can be timed on its own.
func (r *serveRunner) replay(tr *tracer, parent int64, rec *passRecord) error {
	wm, om := r.reg.Wafer(), r.reg.Outlier()
	buf, err := json.Marshal(wm.Cls)
	if err != nil {
		return err
	}
	var parts struct {
		Encoder    wafer.EncoderConfig
		Classifier *hdc.Classifier
	}
	if err := json.Unmarshal(buf, &parts); err != nil {
		return fmt.Errorf("split wafer classifier: %w", err)
	}
	enc, err := wafer.NewEncoderFromConfig(parts.Encoder)
	if err != nil {
		return err
	}
	const reps = 100 // one match or score is near the timer's resolution
	var predict, encode, match, score []time.Duration
	for _, m := range r.maps {
		var want, got int
		predict = append(predict, tr.do(parent, "core", "HDCWaferClassifier.Predict", func(int64) { want = wm.Cls.Predict(m) }))
		var hv hdc.HV
		encode = append(encode, tr.do(parent, "wafer", "Encoder.Encode", func(int64) { hv = enc.Encode(m) }))
		d := tr.do(parent, "hdc", "Classifier.Predict", func(int64) {
			for i := 0; i < reps; i++ {
				got = parts.Classifier.Predict(hv)
			}
		})
		match = append(match, d/reps)
		rec.gate(got == want, "serve replay: encoder+memory class %d, classifier %d", got, want)
	}
	for _, x := range r.xs {
		d := tr.do(parent, "outlier", "Scorer.Score", func(int64) {
			for i := 0; i < reps; i++ {
				om.Scorer.Score(x)
			}
		})
		score = append(score, d/reps)
	}
	t := &r.traced
	t.predictUS = float64(median(predict)) / 1e3
	t.encodeUS = float64(median(encode)) / 1e3
	t.matchUS = float64(median(match)) / 1e3
	t.scoreUS = float64(median(score)) / 1e3
	return nil
}

// daemonVars is the part of the daemon's /debug/vars the benchmark reads.
type daemonVars struct {
	buckets                        [24]int64 // latency histogram, summed over the inference endpoints
	requests, errors, shed, panics int64
	totalAlloc, numGC, heapAlloc   float64
}

func (r *serveRunner) vars() (*daemonVars, error) {
	resp, err := r.client.Get(r.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw struct {
		Itrserve map[string]json.RawMessage `json:"itrserve"`
		Memstats struct {
			TotalAlloc, NumGC, HeapAlloc float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	v := &daemonVars{totalAlloc: raw.Memstats.TotalAlloc, numGC: raw.Memstats.NumGC, heapAlloc: raw.Memstats.HeapAlloc}
	if err := json.Unmarshal(raw.Itrserve["panics"], &v.panics); err != nil {
		return nil, fmt.Errorf("/debug/vars panics: %w", err)
	}
	for _, ep := range []string{epClassify, epScore, epDecide} {
		var s struct {
			Requests, Errors, Shed int64
			Latency                struct {
				Buckets []int64 `json:"log2us_buckets"`
			}
		}
		if err := json.Unmarshal(raw.Itrserve[ep], &s); err != nil {
			return nil, fmt.Errorf("/debug/vars %s: %w", ep, err)
		}
		v.requests += s.Requests
		v.errors += s.Errors
		v.shed += s.Shed
		for i := 0; i < len(v.buckets) && i < len(s.Latency.Buckets); i++ {
			v.buckets[i] += s.Latency.Buckets[i]
		}
	}
	return v, nil
}

// memory reports the daemon's allocation and heap, sampled after each
// loop of the untraced passes, and its peak RSS, which the kernel reports
// when the daemon has exited.
func (r *serveRunner) memory() memory {
	m := memory{alloc: uint64(r.alloc), peakHeapMB: r.peakHeap / (1 << 20), who: "the itrserve daemon"}
	if ps := r.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			m.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return m
}

// bucketQuantile is the daemon's own histogram estimate: the upper edge,
// in ms, of the log2-µs bucket holding the q-quantile.
func bucketQuantile(b [24]int64, q float64) float64 {
	var total int64
	for _, c := range b {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var seen int64
	for i, c := range b {
		if seen += c; seen >= rank {
			return math.Pow(2, float64(i)) / 1e3
		}
	}
	return math.Pow(2, float64(len(b)-1)) / 1e3
}

func (r *serveRunner) layers(m map[string]float64, passes int) {
	t := &r.traced
	m["serve.server_p50_ms"] = bucketQuantile(t.buckets, 0.50)
	m["serve.server_p90_ms"] = bucketQuantile(t.buckets, 0.90)
	m["serve.shed"] = float64(t.shed)
	m["serve.errors"] = float64(t.errors)
	m["serve.panics"] = float64(t.panics)
	if t.reqs > 0 {
		m["serve.alloc_kb_per_req"] = t.alloc / float64(t.reqs) / 1024
		m["serve.gc_per_kreq"] = t.gcs / float64(t.reqs) * 1000
	}
	m["serve.sat_rps"] = float64(r.sc.roundSize()) / iqm(t.bursts).Seconds()
	m["serve.gen_late_ms_p90"] = ms(quantile(t.late, 0.9))
	m["core.wafer_predict_us"] = t.predictUS
	m["wafer.encode_us"] = t.encodeUS
	m["hdc.match_us"] = t.matchUS
	m["outlier.score_us"] = t.scoreUS
}

func (r *serveRunner) named(s summary) []string {
	return []string{
		fmt.Sprintf("serve_p50_ms %.4f ms (%d open-loop requests at %.0f req/s)", s.reqMS(0.5), s.requests(), r.sc.serveRate),
		fmt.Sprintf("serve_p90_ms %.4f ms (%d requests beyond it per pass)", s.reqMS(0.9), s.requests()/len(s.passes)/10),
		fmt.Sprintf("open-loop summed latency %.4f s per round (minor_s)", s.minorS()),
		fmt.Sprintf("serve_sat_rps %.2f req/s (closed loop, %d connections, %d requests per burst, interquartile mean of %d)",
			float64(r.sc.roundSize())/s.jobS(), workers(), r.sc.roundSize(), len(s.passes)),
	}
}

// close stops the daemon with SIGTERM, its graceful drain, and waits for it.
func (r *serveRunner) close() error {
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-r.exited: // already gone
			return nil
		default:
			return err
		}
	}
	select {
	case err := <-r.exited:
		return err
	case <-time.After(20 * time.Second):
		r.cmd.Process.Kill()
		<-r.exited
		return errors.New("itrserve did not drain within 20s after SIGTERM")
	}
}
