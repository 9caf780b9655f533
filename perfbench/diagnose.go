package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/fault"
	"repro/internal/logic"
)

// diagRunner is volume diagnosis: per pass it builds the full-response
// dictionary dictBuilds times and diagnoses a batch of failure logs
// against the last one. A request is one Diagnose call; the minor phase is
// one dictionary build, the mean of the pass's; the job is the builds plus
// the batch.
type diagRunner struct {
	sc      scale
	seed    int64
	net     *circuit.Netlist
	pats    *logic.PatternSet
	logs    []failLog
	next    int // next log to diagnose
	compile time.Duration
	detect  time.Duration // set-up's detection run on the same inputs
	dictSig uint64        // first pass's dictionary digest
	nonzero float64
	top1    int // first batch's hits at rank 1
	top5    int // and within rank 5

	// Traced-pass totals.
	dict      time.Duration
	dictAlloc uint64
	diagAlloc uint64
	diagnosed int
	candShare float64
}

// dictBuilds is how many times a pass builds the dictionary. One build
// is a sixteenth of the pass and varies by a tenth from build to build
// on a 2-vCPU host, so minor_s is their mean over several builds a pass.
const dictBuilds = 3

// failLog is one defective die's noisy failure log and its true fault.
type failLog struct {
	fault int
	obs   *diagnosis.Observation
}

func setupDiagnose(e *env) (runner, error) {
	sc := e.scale
	r := &diagRunner{sc: sc, seed: e.seed}
	var err error
	if r.net, r.compile, err = build(sc.diagCircuit); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	r.pats = randomPatterns(r.net, sc.diagPatterns, rng)
	faults := fault.Universe(r.net)
	t0 := time.Now()
	det, err := fault.RunConcurrentWords(r.net, r.pats, faults, workers(), 8)
	if err != nil {
		return nil, err
	}
	r.detect = time.Since(t0)
	var detectable []int
	for i, by := range det.DetectedBy {
		if by >= 0 {
			detectable = append(detectable, i)
		}
	}
	if len(detectable) == 0 {
		return nil, fmt.Errorf("diagnose: no fault of %s is detected by the patterns", sc.diagCircuit)
	}
	// Dies fail with a detectable fault; the tester drops a share of the
	// failing bits. A log that lost every bit is not a failing die.
	for len(r.logs) < sc.diagLogs {
		fi := detectable[rng.Intn(len(detectable))]
		obs, err := diagnosis.Observe(r.net, r.pats, faults[fi], diagDropout, rng.Float64)
		if err != nil {
			return nil, err
		}
		if failBits(obs) > 0 {
			r.logs = append(r.logs, failLog{fault: fi, obs: obs})
		}
	}
	return r, nil
}

func failBits(obs *diagnosis.Observation) int {
	n := 0
	for _, ws := range obs.Bits {
		for _, w := range ws {
			n += logic.PopCount(w)
		}
	}
	return n
}

func (r *diagRunner) pass(tr *tracer, rec *passRecord) error {
	root := tr.begin(0, "bench", "diagnose.pass")
	defer tr.end(root)
	var d *diagnosis.Diagnoser
	var dt time.Duration
	var dictAlloc uint64
	for i := 0; i < dictBuilds; i++ {
		if i > 0 {
			// Every build starts from the heap the pass started from, not
			// with the last build's dictionary as garbage.
			d = nil
			runtime.GC()
		}
		var err error
		b0 := allocated()
		dt += tr.do(root, "diagnosis", "diagnosis.NewWorkersWords", func(int64) {
			d, err = diagnosis.NewWorkersWords(r.net, r.pats, workers(), 8)
		})
		dictAlloc += allocated() - b0
		if err != nil {
			return fmt.Errorf("diagnose: dictionary: %w", err)
		}
		rec.attempted++
		sig := digest(d.Dict)
		if r.dictSig == 0 {
			r.dictSig = sig
			r.nonzero = nonzeroShare(d.Dict)
			if pin, ok := diagPins[r.sc.diagCircuit]; ok && r.seed == defaultSeed {
				rec.gate(sig == pin.digest, "diagnose seed %d: dictionary digest %016x, pinned %016x", r.seed, sig, pin.digest)
			}
		} else {
			rec.gate(sig == r.dictSig, "diagnose: dictionary digest %016x differs from the first build's %016x", sig, r.dictSig)
		}
	}
	rec.job += dt
	rec.minor = dt / dictBuilds

	firstBatch := r.next == 0
	top1, top5 := 0, 0
	for i := 0; i < r.sc.diagBatch; i++ {
		lg := r.logs[r.next%len(r.logs)]
		r.next++
		var cands []diagnosis.Candidate
		b0 := allocated()
		lt := tr.do(root, "diagnosis", "Diagnoser.Diagnose", func(int64) { cands = d.Diagnose(lg.obs, nil) })
		alloc := allocated() - b0
		rec.job += lt
		rec.request(lt)
		rec.attempted++
		// The true fault shares every observed failure, so it (or a fault
		// with an identical signature) is always a candidate.
		rank := d.HitRank(cands, lg.fault)
		rec.gate(rank >= 1, "diagnose: true fault %d missing from %d candidates", lg.fault, len(cands))
		if rank == 1 {
			top1++
		}
		if rank >= 1 && rank <= 5 {
			top5++
		}
		if tr != nil {
			r.diagAlloc += alloc
			r.diagnosed++
			r.candShare += float64(len(cands)) / float64(len(d.Faults))
		}
	}
	if firstBatch {
		r.top1, r.top5 = top1, top5
	}
	if firstBatch && r.seed == defaultSeed {
		if pin, ok := diagPins[r.sc.diagCircuit]; ok {
			rec.gate(top1 == pin.top1 && top5 == pin.top5, "diagnose seed %d: first batch top-1/top-5 hits %d/%d, pinned %d/%d",
				r.seed, top1, top5, pin.top1, pin.top5)
		}
	}
	if tr != nil {
		r.dict += dt
		r.dictAlloc += dictAlloc
	}
	return nil
}

func (r *diagRunner) layers(m map[string]float64, passes int) {
	p := float64(passes)
	m["circuit.compile_ms"] = ms(r.compile)
	m["fault.detect_ms"] = ms(r.detect)
	m["fault.dict_alloc_mb"] = float64(r.dictAlloc) / p / dictBuilds / (1 << 20)
	m["fault.sig_nonzero_share"] = r.nonzero
	m["diagnosis.dict_s"] = r.dict.Seconds() / p / dictBuilds
	if r.diagnosed > 0 {
		m["diagnosis.candidate_share"] = r.candShare / float64(r.diagnosed)
		m["diagnosis.alloc_kb_per_log"] = float64(r.diagAlloc) / float64(r.diagnosed) / 1024
	}
}

func (r *diagRunner) named(s summary) []string {
	return []string{
		fmt.Sprintf("dict_s %.4f s (diagnosis.NewWorkersWords, minor_s: interquartile mean over %d passes of each pass's mean of %d)", s.minorS(), len(s.minors), dictBuilds),
		fmt.Sprintf("diag_p50_ms %.4f ms (%d logs)", s.reqMS(0.5), s.requests()),
		fmt.Sprintf("diag_p90_ms %.4f ms (%d logs beyond it per pass)", s.reqMS(0.9), s.requests()/len(s.passes)/10),
		fmt.Sprintf("volume_diagnosis_s %.4f s (%d dictionaries + %d logs, interquartile mean of %d passes)", s.jobS(), dictBuilds, r.sc.diagBatch, len(s.passes)),
		fmt.Sprintf("dictionary digest %016x on %s, %d patterns; first batch top-1 %d, top-5 %d of %d",
			r.dictSig, r.sc.diagCircuit, r.sc.diagPatterns, r.top1, r.top5, r.sc.diagBatch),
	}
}

func (r *diagRunner) close() error { return nil }
