// Package sim provides gate-level logic simulation over circuit netlists:
// a compiled, levelized 64-way parallel-pattern simulator (Simulator) and
// its multi-word counterpart (Wide), which carries up to MaxLanes pattern
// words per gate and backs fault simulation. Both consume the shared
// immutable circuit.Compiled IR, so many simulator instances (one per
// worker goroutine, one per request) share a single compiled graph.
package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Simulator is a compiled parallel-pattern simulator bound to one netlist.
// It reads the shared immutable IR and reuses its value and fanin buffers
// across calls, so simulating many pattern blocks performs no allocation.
type Simulator struct {
	Net *circuit.Netlist
	// C is the shared compiled IR; read-only.
	C      *circuit.Compiled
	values []logic.Word // one word (64 patterns) per gate
	fanin  []logic.Word // scratch: one gate's fanin words (C.MaxFanin)
}

// New compiles a simulator for the netlist. The netlist must compile (it is
// validated, and unknown gate types are rejected up front). The compiled IR
// is cached on the netlist, so repeated New calls share one graph.
func New(n *circuit.Netlist) (*Simulator, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return NewCompiled(c), nil
}

// NewCompiled builds a simulator over an already-compiled IR. The IR is
// shared, never copied; only the per-instance buffers are allocated, so
// per-worker simulators are cheap.
func NewCompiled(c *circuit.Compiled) *Simulator {
	return &Simulator{
		Net:    c.Net,
		C:      c,
		values: make([]logic.Word, c.NumGates()),
		fanin:  make([]logic.Word, c.MaxFanin),
	}
}

// Eval computes one gate's output word from its fanin words. Gate types are
// validated at circuit.Compile time, so every type reaching a simulator is
// known; an out-of-range type (only constructible by bypassing Compile)
// evaluates to the all-zero word.
func Eval(t circuit.GateType, in []logic.Word) logic.Word {
	switch t {
	case circuit.Buf, circuit.DFF:
		return in[0]
	case circuit.Not:
		return ^in[0]
	case circuit.And, circuit.Nand:
		v := in[0]
		for _, w := range in[1:] {
			v &= w
		}
		if t == circuit.Nand {
			v = ^v
		}
		return v
	case circuit.Or, circuit.Nor:
		v := in[0]
		for _, w := range in[1:] {
			v |= w
		}
		if t == circuit.Nor {
			v = ^v
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := in[0]
		for _, w := range in[1:] {
			v ^= w
		}
		if t == circuit.Xnor {
			v = ^v
		}
		return v
	}
	return 0
}

// Block simulates one 64-pattern block. piWords[i] holds the word for
// Net.PIs[i]. After the call, Values reports every gate's word. The
// returned slice aliases internal storage valid until the next call.
func (s *Simulator) Block(piWords []logic.Word) []logic.Word {
	c := s.C
	if len(piWords) != c.NumPIs() {
		panic(fmt.Sprintf("sim: got %d PI words, want %d", len(piWords), c.NumPIs()))
	}
	for _, id32 := range c.Order {
		id := int(id32)
		t := c.Types[id]
		if t == circuit.Input || t == circuit.DFF {
			// Full-scan: DFF outputs are pseudo-PIs.
			s.values[id] = piWords[c.PIPos[id]]
			continue
		}
		fanin := c.Fanin(id)
		in := s.fanin[:len(fanin)]
		for pin, f := range fanin {
			in[pin] = s.values[f]
		}
		s.values[id] = Eval(t, in)
	}
	return s.values
}

// Value returns gate id's word from the most recent Block call.
func (s *Simulator) Value(id int) logic.Word { return s.values[id] }

// Values returns every gate's word from the most recent Block call. The
// slice aliases internal storage valid until the next Block call; callers
// must not mutate it. Indexing it directly avoids a call per fanin in the
// fault-simulation inner loop.
func (s *Simulator) Values() []logic.Word { return s.values }

// Outputs copies the PO words from the most recent Block call into dst
// (allocated when nil) and returns it.
func (s *Simulator) Outputs(dst []logic.Word) []logic.Word {
	if dst == nil {
		dst = make([]logic.Word, len(s.Net.POs))
	}
	for i, po := range s.Net.POs {
		dst[i] = s.values[po]
	}
	return dst
}

// Response holds PO values for a full pattern set, bit-sliced like
// logic.PatternSet: Bits[po][word].
type Response struct {
	Outputs int
	N       int
	Bits    [][]logic.Word
}

// Get returns output o of pattern n.
func (r *Response) Get(n, o int) bool {
	w, b := n/logic.WordBits, uint(n%logic.WordBits)
	return r.Bits[o][w]>>b&1 == 1
}

// Run simulates the whole pattern set and returns the PO response.
func (s *Simulator) Run(p *logic.PatternSet) *Response {
	if p.Inputs != len(s.Net.PIs) {
		panic(fmt.Sprintf("sim: pattern set width %d != PIs %d", p.Inputs, len(s.Net.PIs)))
	}
	words := p.Words()
	r := &Response{Outputs: len(s.Net.POs), N: p.N}
	r.Bits = make([][]logic.Word, len(s.Net.POs))
	backing := make([]logic.Word, len(s.Net.POs)*words)
	for i := range r.Bits {
		r.Bits[i], backing = backing[:words:words], backing[words:]
	}
	pi := make([]logic.Word, len(s.Net.PIs))
	for w := 0; w < words; w++ {
		for i := range pi {
			pi[i] = p.Bits[i][w]
		}
		s.Block(pi)
		mask := p.TailMask(w)
		for o, po := range s.Net.POs {
			r.Bits[o][w] = s.values[po] & mask
		}
	}
	return r
}

// RunPattern simulates a single pattern given as bools and returns the PO
// values. Convenience wrapper for tests and examples.
func (s *Simulator) RunPattern(bits []bool) []bool {
	pi := make([]logic.Word, len(s.Net.PIs))
	for i, v := range bits {
		if v {
			pi[i] = 1
		}
	}
	s.Block(pi)
	out := make([]bool, len(s.Net.POs))
	for i, po := range s.Net.POs {
		out[i] = s.values[po]&1 == 1
	}
	return out
}
