package atpg

import (
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// deterministicBatched is phase 2 of the flow: pattern-batched, speculative
// parallel PODEM with deterministic commit. It reproduces the serial flow's
// decisions exactly — same Generate calls, same pattern set, same statistics
// — while replacing its two per-fault costs with batched equivalents:
//
// Pattern batching: the serial flow runs one full live-list fault simulation
// per committed pattern, using 1 of the 64×Words pattern bits a walk can
// carry. Here committed patterns accumulate in a pending block and the full
// live-list walk runs once per 64×Words patterns (the flush). In between,
// "is this fault already detected?" — the only question the serial flow
// answered with those walks — is answered lazily per fault: the pending
// block's good values are staged once per round and each query is a single
// event-driven cone walk (fault.Stage/Probe). Total dropping work shrinks
// from patterns × live-list walks to faults × cone probes + one walk per
// block, typically one to two orders of magnitude.
//
// Speculation: each round snapshots the next `depth` undetected faults in
// fault order and generates all their candidate cubes concurrently —
// per-worker engines over the shared compiled IR and SCOAP table, per-fault
// SplitMix64 fill seeds, so every candidate is a pure function of its fault
// index. The commit replay then walks candidates in fault order: a
// candidate whose target was meanwhile detected by an earlier committed
// pattern of the same round is discarded exactly as the serial flow would
// never have generated it (its backtracks are not counted); the rest commit
// in order. Commits of this round are re-simulated against later candidates
// (resimOne) so intra-round fortuitous detection is honored.
//
// Speculation depth adapts unless Config.SpecDepth pins it: the snapshot
// scan already counts how many faults the cursor passed over because a
// pending pattern had fortuitously killed them, and the replay counts
// intra-round skips. A high kill rate means each pattern detects many
// upcoming faults — speculating ahead would waste Generate calls — so the
// depth halves (down to 1, the serial schedule with batched dropping). A
// low rate means candidates are independent, so the depth doubles (up to
// one block, 64×Words) and the worker pool gets full fan-out. Because the
// commit protocol is depth-invariant, any deterministic schedule yields
// bit-identical results — pinned by tests across the workers × words grid,
// fixed SpecDepth values and the Serial reference.
func (f *flow) deterministicBatched() {
	workers := parallel.Workers(f.cfg.Workers)
	blockCap := logic.WordBits * fault.NormalizeWords(f.cfg.Words)
	fixedDepth := f.cfg.SpecDepth > 0
	depth := workers
	if fixedDepth {
		depth = f.cfg.SpecDepth
	}
	maxDepth := blockCap
	if maxDepth < workers {
		maxDepth = workers
	}

	engs := make([]*Engine, workers)
	for w := range engs {
		engs[w] = NewShared(f.comp, f.scoap)
		engs[w].Guide = f.cfg.Guide
		engs[w].BacktrackLim = f.cfg.BacktrackLim
	}
	// Intra-round resimulation gets its own single-word simulator so it
	// never clobbers f.fsim's staged good values: re-staging the pending
	// block at each snapshot then stays incremental (only the lane words
	// that gained patterns re-simulate) instead of paying a full-width good
	// simulation per round.
	f.resim = fault.NewSimulatorCompiledWords(f.comp, 1)

	capHint := depth
	if capHint > len(f.faults) {
		capHint = len(f.faults)
	}
	var (
		pending   = logic.NewPatternSet(len(f.net.PIs), 0) // committed, not yet flushed
		roundKept = logic.NewPatternSet(len(f.net.PIs), 0) // committed this round
		cand      = make([]int, 0, capHint)                // global fault indices, ascending
		statuses  []Status                                 // per-candidate PODEM outcome
		bits      [][]bool                                 // per-candidate filled pattern
		btDelta   []int64                                  // per-candidate backtrack count
	)

	// flush marks everything the pending block detects — the deferred
	// equivalent of the serial flow's per-pattern live-list walks — and
	// resets it. Faults already marked (committed targets, redundant proofs,
	// snapshot/replay skips) are not in the live list, so nothing is counted
	// twice.
	flush := func() {
		if pending.N == 0 {
			return
		}
		live, liveIdx := f.liveFaults()
		f.fsim.RunInto(pending, live, f.detBy, f.dropBuf)
		for i, d := range f.detBy {
			if d >= 0 {
				f.detected[liveIdx[i]] = true
				f.res.DetPhase++
			}
		}
		pending.Reset()
	}

	cursor := 0
	for cursor < len(f.faults) {
		// Snapshot: collect the next `depth` faults that are live even
		// against the pending block. A fault a pending pattern detects is
		// marked here — the serial flow marked it during that pattern's
		// walk, before ever reaching it — so no Generate is wasted on it.
		t1 := time.Now()
		cand = cand[:0]
		deadPassed := 0
		if pending.N > 0 {
			f.fsim.Stage(pending)
		}
		for ; cursor < len(f.faults) && len(cand) < depth; cursor++ {
			if f.detected[cursor] {
				continue
			}
			if pending.N > 0 && f.fsim.Probe(f.faults[cursor]) {
				f.detected[cursor] = true
				f.res.DetPhase++
				deadPassed++
				continue
			}
			cand = append(cand, cursor)
		}
		f.res.DropTime += time.Since(t1)
		m := len(cand)
		if m == 0 {
			break
		}

		// Speculative generation: each candidate is a pure function of its
		// fault index, so workers may complete them in any order.
		t0 := time.Now()
		if cap(statuses) < m {
			statuses = make([]Status, m)
			bits = make([][]bool, m)
			btDelta = make([]int64, m)
		}
		statuses, bits, btDelta = statuses[:m], bits[:m], btDelta[:m]
		_ = parallel.ForWorker(workers, m, func(w, j int) error {
			eng := engs[w]
			before := eng.Backtracks
			cube, status := eng.Generate(f.faults[cand[j]])
			btDelta[j] = eng.Backtracks - before
			statuses[j] = status
			if status == Detected {
				rng := rand.New(rand.NewSource(f.fillSeed(cand[j])))
				bits[j] = fillCube(cube, rng, f.cfg.FillRandom)
			}
			return nil
		})
		f.res.GenTime += time.Since(t0)

		// Commit replay in fault order. A mid-replay flush (pending block
		// full) can mark later candidates of this round detected; the
		// replay honors those marks like any other prior detection.
		t1 = time.Now()
		roundKept.Reset()
		skips := 0
		for j := 0; j < m; j++ {
			fi := cand[j]
			if f.detected[fi] {
				skips++ // marked by a mid-replay flush; already counted there
				continue
			}
			if roundKept.N > 0 && f.resimOne(roundKept, f.faults[fi]) {
				// An earlier committed pattern of this round detects the
				// target: the serial flow would have marked it during that
				// pattern's walk and never generated it.
				f.detected[fi] = true
				f.res.DetPhase++
				skips++
				continue
			}
			f.res.Backtracks += btDelta[j]
			switch statuses[j] {
			case Redundant:
				f.res.Redundant++
				f.detected[fi] = true // excluded from live lists and coverage
			case Aborted:
				f.res.Aborted++
			case Detected:
				roundKept.Append(bits[j])
				pending.Append(bits[j])
				f.patterns.Append(bits[j])
				f.detected[fi] = true
				f.res.DetPhase++
				if pending.N >= blockCap {
					flush()
				}
			}
		}
		f.res.DropTime += time.Since(t1)

		if !fixedDepth {
			// deadPassed+skips of deadPassed+m snapshot-live faults turned
			// out to be fortuitously covered: the kill rate that decides
			// whether speculating further ahead pays.
			killed := deadPassed + skips
			seen := deadPassed + m
			if killed*2 >= seen {
				if depth > 1 {
					depth /= 2
				}
			} else if killed*4 <= seen && m == depth && depth < maxDepth {
				depth *= 2
				if depth > maxDepth {
					depth = maxDepth
				}
			}
		}
	}
	t1 := time.Now()
	flush()
	f.res.DropTime += time.Since(t1)
}

// resimOne reports whether fault fl is detected by any pattern in p — the
// replay's intra-round fortuitous-detection check against the patterns
// committed earlier in the same round. It runs on the dedicated resim
// simulator, leaving f.fsim's staged pending block intact.
func (f *flow) resimOne(p *logic.PatternSet, fl fault.Fault) bool {
	if p.N == 0 {
		return false
	}
	var one [1]fault.Fault
	var db [1]int
	one[0] = fl
	return f.resim.RunInto(p, one[:], db[:], f.dropBuf) > 0
}
