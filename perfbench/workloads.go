package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// scale sizes every workload. fullScale is what the benchmark measures;
// the smoke test runs the same code on smokeScale.
type scale struct {
	atpgCircuits []string // atpg.Run inputs, run in order within a pass

	diagCircuit  string
	diagPatterns int
	diagLogs     int // failure logs generated in set-up
	diagBatch    int // logs diagnosed per pass

	clusterCircuit  string
	clusterPatterns int

	serveDim, serveGrid int
	serveMapsPerClass   int     // wafer maps per defect class in the request pool
	serveScores         int     // score requests per round of the stream
	serveDecides        int     // decide requests per round of the stream
	serveRate           float64 // open-loop requests per second
}

// diagDropout is the share of failing bits a noisy tester drops from a
// failure log.
const diagDropout = 0.05

var fullScale = scale{
	atpgCircuits: []string{"rand32.400.1", "rand32.400.2"},

	diagCircuit: "rand64.2000.3", diagPatterns: 256,
	diagLogs: 100, diagBatch: 20,

	clusterCircuit: "rand64.3000.3", clusterPatterns: 256,

	serveDim: 2048, serveGrid: 32,
	serveMapsPerClass: 6, serveScores: 28, serveDecides: 18,
	serveRate: 100,
}

// workloads maps each workload name to its set-up. BENCHMARK.json and
// README.md say why each was chosen.
var workloads = map[string]func(*env) (runner, error){
	"atpg":         setupATPG,
	"diagnose":     setupDiagnose,
	"cluster-dict": setupCluster,
	"serve":        setupServe,
}

// workers is the fan-out every engine gets: one per CPU.
func workers() int { return runtime.NumCPU() }

// build generates a circuit from its spec and compiles it, returning the
// compile time. The compiled form is cached on the netlist, where every
// engine picks it up.
func build(spec string) (*circuit.Netlist, time.Duration, error) {
	n, err := circuit.FromSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	_, err = n.Compiled()
	return n, time.Since(t0), err
}

// randomPatterns returns n patterns over the netlist's inputs drawn from rng.
func randomPatterns(nl *circuit.Netlist, n int, rng *rand.Rand) *logic.PatternSet {
	p := logic.NewPatternSet(len(nl.PIs), n)
	p.RandFill(func() logic.Word { return rng.Uint64() })
	return p
}

// fnvOffset starts a hashWords chain.
const fnvOffset = 14695981039346656037

// hashWords folds words into h, 64-bit FNV-1a style: cheap enough to check
// every pass's output.
func hashWords(h uint64, ws []uint64) uint64 {
	for _, w := range ws {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// digest hashes a dictionary, every signature row in order.
func digest(sigs []*fault.Signature) uint64 {
	h := uint64(fnvOffset)
	for _, s := range sigs {
		for _, ws := range s.Bits {
			h = hashWords(h, ws)
			h = hashWords(h, []uint64{0xff}) // row boundary
		}
	}
	return h
}

// nonzeroShare is the share of (fault, PO) signature rows with any bit set.
func nonzeroShare(sigs []*fault.Signature) float64 {
	rows, set := 0, 0
	for _, s := range sigs {
		for _, ws := range s.Bits {
			rows++
			for _, w := range ws {
				if w != 0 {
					set++
					break
				}
			}
		}
	}
	if rows == 0 {
		return 0
	}
	return float64(set) / float64(rows)
}

// smokeScale runs every workload and gate in seconds, for the smoke test.
var smokeScale = scale{
	atpgCircuits: []string{"c17", "rand16.80.1"},

	diagCircuit: "rand16.120.1", diagPatterns: 64,
	diagLogs: 8, diagBatch: 4,

	clusterCircuit: "rand16.150.1", clusterPatterns: 128,

	serveDim: 512, serveGrid: 16,
	serveMapsPerClass: 1, serveScores: 3, serveDecides: 2,
	serveRate: 200,
}
