package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// scanCircuit builds a tiny sequential netlist: q = DFF(d), y = AND(q, b),
// d = OR(a, q). Under full scan, q is a pseudo-PI and d a pseudo-PO.
func scanCircuit(t *testing.T) *circuit.Netlist {
	t.Helper()
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(d)
q = DFF(d)
d = OR(a, q)
y = AND(q, b)
`
	n, err := circuit.ParseBenchString(src, "scan")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDFFIsPseudoPI(t *testing.T) {
	n := scanCircuit(t)
	// PIs must be a, b, q (the DFF output).
	if len(n.PIs) != 3 {
		t.Fatalf("PIs = %d, want 3 (a, b and scan cell q)", len(n.PIs))
	}
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	idx := n.InputIndex()
	pin := func(name string) int {
		g, ok := n.GateByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return idx[g.ID]
	}
	poIdx := map[string]int{}
	for i, po := range n.POs {
		poIdx[n.Gates[po].Name] = i
	}
	// Scan in q=1, a=0, b=1: y = q&b = 1, d = a|q = 1.
	bits := make([]bool, 3)
	bits[pin("q")] = true
	bits[pin("b")] = true
	out := s.RunPattern(bits)
	if !out[poIdx["y"]] || !out[poIdx["d"]] {
		t.Errorf("scan state not honored: y=%v d=%v", out[poIdx["y"]], out[poIdx["d"]])
	}
	// q=0: y must fall regardless of b, d follows a.
	bits[pin("q")] = false
	out = s.RunPattern(bits)
	if out[poIdx["y"]] || out[poIdx["d"]] {
		t.Errorf("cleared scan cell leaked: y=%v d=%v", out[poIdx["y"]], out[poIdx["d"]])
	}
}

// TestWideScanCellKeepsScannedValue guards the full-scan invariant in the
// lane-parallel simulator: a DFF output holds its scanned-in word in every
// active lane, whatever its D input computes, and the logic it feeds sees
// that word.
func TestWideScanCellKeepsScannedValue(t *testing.T) {
	n := scanCircuit(t)
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	idx := n.InputIndex()
	id := func(name string) int {
		g, ok := n.GateByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return g.ID
	}
	a, b, q, d, y := id("a"), id("b"), id("q"), id("d"), id("y")
	rng := rand.New(rand.NewSource(5))
	for w := 1; w <= MaxLanes; w++ {
		ws := NewWideCompiled(c, w)
		pi := make([]logic.Word, len(n.PIs)*w)
		for i := range pi {
			pi[i] = logic.Word(rng.Uint64())
		}
		vals := ws.Block(pi, w)
		for l := 0; l < w; l++ {
			av, bv, qv := pi[idx[a]*w+l], pi[idx[b]*w+l], pi[idx[q]*w+l]
			if vals[q*w+l] != qv {
				t.Fatalf("W=%d lane %d: scan cell %x, scanned in %x", w, l, vals[q*w+l], qv)
			}
			if vals[d*w+l] != av|qv || vals[y*w+l] != qv&bv {
				t.Fatalf("W=%d lane %d: d=%x y=%x, want %x %x", w, l, vals[d*w+l], vals[y*w+l], av|qv, qv&bv)
			}
		}
	}
}
