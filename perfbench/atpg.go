package main

import (
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
)

// atpgRunner runs atpg.Run on each circuit of the list per pass. The job
// is the whole list. The first circuit's run is the minor phase; a request
// is one atpg.Run call on a later circuit, so at full scale a pass holds
// one request and its p50 and p90 are that call's time.
type atpgRunner struct {
	specs   []string
	nets    []*circuit.Netlist
	faults  [][]fault.Fault
	cfg     atpg.Config
	seed    int64
	compile time.Duration
	first   []atpgOutcome // first pass, which every later pass must repeat

	// Traced-pass totals.
	gen, drop, rest           time.Duration
	backtracks, redund, abort int64
	alloc                     uint64
}

// atpgOutcome is what a run must reproduce exactly on the same inputs.
type atpgOutcome struct {
	patterns, detected, redundant, aborted int
	backtracks                             int64
	setHash                                uint64
}

func setupATPG(e *env) (runner, error) {
	r := &atpgRunner{specs: e.scale.atpgCircuits, seed: e.seed}
	for _, spec := range r.specs {
		n, d, err := build(spec)
		if err != nil {
			return nil, err
		}
		r.compile += d
		r.nets = append(r.nets, n)
		r.faults = append(r.faults, fault.Universe(n))
	}
	r.cfg = atpg.DefaultConfig()
	r.cfg.Seed = e.seed
	r.cfg.Words = 8
	r.cfg.Workers = workers()
	return r, nil
}

func (r *atpgRunner) pass(tr *tracer, rec *passRecord) error {
	root := tr.begin(0, "bench", "atpg.pass")
	defer tr.end(root)
	firstPass := r.first == nil
	for i, n := range r.nets {
		var res *atpg.Result
		var err error
		b0 := allocated()
		d := tr.do(root, "atpg", "atpg.Run "+r.specs[i], func(int64) { res, err = atpg.Run(n, r.cfg) })
		alloc := allocated() - b0
		if err != nil {
			return fmt.Errorf("atpg.Run %s: %w", r.specs[i], err)
		}
		rec.job += d
		if i == 0 {
			rec.minor = d
		} else {
			rec.request(d)
		}
		rec.attempted++

		// The returned set, re-simulated by the serial reference engine,
		// must detect exactly the faults the run claims.
		sim, err := fault.NewSimulator(n)
		if err != nil {
			return err
		}
		ref := sim.RunSerial(res.Patterns, r.faults[i])
		rec.gate(ref.Detected == res.Detected, "atpg %s: pattern set detects %d faults, Result.Detected %d",
			r.specs[i], ref.Detected, res.Detected)
		got := atpgOutcome{
			patterns: res.Patterns.N, detected: res.Detected, redundant: res.Redundant,
			aborted: res.Aborted, backtracks: res.Backtracks, setHash: patternHash(res.Patterns.Bits),
		}
		if firstPass {
			r.first = append(r.first, got)
			if pin, ok := atpgPins[r.specs[i]]; ok && r.seed == defaultSeed {
				rec.gate(got.patterns == pin.patterns && got.backtracks == pin.backtracks,
					"atpg %s seed %d: %d patterns and %d backtracks, pinned %d and %d",
					r.specs[i], r.seed, got.patterns, got.backtracks, pin.patterns, pin.backtracks)
			}
		} else {
			rec.gate(got == r.first[i], "atpg %s: pass result %+v differs from first pass %+v", r.specs[i], got, r.first[i])
		}
		if tr != nil {
			r.gen += res.GenTime
			r.drop += res.DropTime
			r.rest += res.Runtime - res.GenTime - res.DropTime
			r.backtracks += res.Backtracks
			r.redund += int64(res.Redundant)
			r.abort += int64(res.Aborted)
			r.alloc += alloc
		}
	}
	return nil
}

func (r *atpgRunner) layers(m map[string]float64, passes int) {
	p := float64(passes)
	m["circuit.compile_ms"] = ms(r.compile)
	m["atpg.gen_s"] = r.gen.Seconds() / p
	m["atpg.drop_s"] = r.drop.Seconds() / p
	m["atpg.rest_s"] = r.rest.Seconds() / p
	m["atpg.backtracks"] = float64(r.backtracks) / p
	m["atpg.redundant"] = float64(r.redund) / p
	m["atpg.aborted"] = float64(r.abort) / p
	m["atpg.alloc_mb"] = float64(r.alloc) / p / (1 << 20)
}

func (r *atpgRunner) named(s summary) []string {
	lines := []string{
		fmt.Sprintf("atpg_s %.4f s (interquartile mean of %d passes over %v)", s.jobS(), len(s.passes), r.specs),
		fmt.Sprintf("atpg.Run %s %.4f s (minor_s); later circuits %.1f ms (req_p50_ms)", r.specs[0], s.minorS(), s.reqMS(0.5)),
	}
	for i, o := range r.first {
		lines = append(lines, fmt.Sprintf("atpg %s: patterns=%d detected=%d/%d redundant=%d aborted=%d backtracks=%d",
			r.specs[i], o.patterns, o.detected, len(r.faults[i]), o.redundant, o.aborted, o.backtracks))
	}
	return lines
}

func (r *atpgRunner) close() error { return nil }

// patternHash hashes a pattern set's bit matrix.
func patternHash(bits [][]uint64) uint64 {
	h := uint64(fnvOffset)
	for _, row := range bits {
		h = hashWords(h, row)
	}
	return h
}
