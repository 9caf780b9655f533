package circuit

import (
	"sync"
	"testing"
)

// TestCompiledMatchesNetlist cross-checks every CSR table and side map of
// the compiled IR against the per-gate slices of the netlist it was built
// from.
func TestCompiledMatchesNetlist(t *testing.T) {
	n := Random(16, 300, 11)
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if c.Net != n {
		t.Fatal("Compiled.Net does not point back at the source netlist")
	}
	if c.NumGates() != len(n.Gates) || c.NumPIs() != len(n.PIs) || c.NumPOs() != len(n.POs) {
		t.Fatalf("counts: gates %d/%d PIs %d/%d POs %d/%d",
			c.NumGates(), len(n.Gates), c.NumPIs(), len(n.PIs), c.NumPOs(), len(n.POs))
	}
	maxFanin := 0
	for _, g := range n.Gates {
		maxFanin = max(maxFanin, len(g.Fanin))
		if c.Types[g.ID] != g.Type {
			t.Errorf("gate %d type %v != %v", g.ID, c.Types[g.ID], g.Type)
		}
		if int(c.Level[g.ID]) != g.Level {
			t.Errorf("gate %d level %d != %d", g.ID, c.Level[g.ID], g.Level)
		}
		fanin := c.Fanin(g.ID)
		if len(fanin) != len(g.Fanin) {
			t.Fatalf("gate %d fanin len %d != %d", g.ID, len(fanin), len(g.Fanin))
		}
		for p, f := range g.Fanin {
			if int(fanin[p]) != f {
				t.Errorf("gate %d fanin[%d] = %d want %d", g.ID, p, fanin[p], f)
			}
		}
		fanout := c.Fanout(g.ID)
		if len(fanout) != len(g.Fanout) {
			t.Fatalf("gate %d fanout len %d != %d", g.ID, len(fanout), len(g.Fanout))
		}
		for p, f := range g.Fanout {
			if int(fanout[p]) != f {
				t.Errorf("gate %d fanout[%d] = %d want %d", g.ID, p, fanout[p], f)
			}
		}
	}
	for i, id := range n.TopoOrder() {
		if int(c.Order[i]) != id {
			t.Fatalf("Order[%d] = %d want %d", i, c.Order[i], id)
		}
		if int(c.Tpos[id]) != i {
			t.Fatalf("Tpos[%d] = %d want %d", id, c.Tpos[id], i)
		}
	}
	piSeen, poSeen := 0, 0
	for id := range n.Gates {
		if p := c.PIPos[id]; p >= 0 {
			piSeen++
			if n.PIs[p] != id {
				t.Errorf("PIPos[%d] = %d but PIs[%d] = %d", id, p, p, n.PIs[p])
			}
		}
		if p := c.POIdx[id]; p >= 0 {
			poSeen++
			if n.POs[p] != id {
				t.Errorf("POIdx[%d] = %d but POs[%d] = %d", id, p, p, n.POs[p])
			}
		}
	}
	if piSeen != len(n.PIs) || poSeen != len(n.POs) {
		t.Errorf("PI/PO maps cover %d/%d and %d/%d", piSeen, len(n.PIs), poSeen, len(n.POs))
	}
	if c.Depth != n.Depth() {
		t.Errorf("Depth %d != %d", c.Depth, n.Depth())
	}
	if c.MaxFanin != maxFanin {
		t.Errorf("MaxFanin %d != %d", c.MaxFanin, maxFanin)
	}
}

// TestCompiledCached pins the compile-once contract: repeated and
// concurrent Compiled() calls return the same pointer and perform exactly
// one compilation; construction-time mutation invalidates the cache.
func TestCompiledCached(t *testing.T) {
	n := Random(8, 50, 2)
	before := CompileCount()
	first, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Compiled, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Compiled()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != first {
			t.Fatalf("call %d returned a different Compiled instance", i)
		}
	}
	if d := CompileCount() - before; d != 1 {
		t.Fatalf("netlist compiled %d times, want exactly 1", d)
	}
	n.MustAddGate("extra", Not, n.Gates[n.PIs[0]].Name)
	if err := n.MarkOutput("extra"); err != nil {
		t.Fatal(err)
	}
	second, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("mutating the netlist did not invalidate the compiled cache")
	}
	if second.NumGates() != first.NumGates()+1 {
		t.Fatalf("recompiled gate count %d, want %d", second.NumGates(), first.NumGates()+1)
	}
}

// TestCompileRejectsUnknownGateType pins the compile-time gate-type check:
// a netlist smuggling an out-of-range gate type (only constructible by
// bypassing AddGate) fails at Compile, not mid-simulation.
func TestCompileRejectsUnknownGateType(t *testing.T) {
	n := MustC17()
	for _, g := range n.Gates {
		if g.Type == Nand {
			g.Type = GateType(97)
			break
		}
	}
	if _, err := Compile(n); err == nil {
		t.Fatal("Compile accepted a netlist with an unknown gate type")
	}
}

// TestCompiledFanoutInvertsFanin checks the compiled graph's own
// invariants, independent of the netlist it came from: the fanout table is
// exactly the inverse of the fanin table (each edge counted with its
// multiplicity), every edge runs forward in Order, every gate sits one level
// above its deepest fanin, and everything reachable through fanout edges
// lies later in topological order than the gate it was reached from.
func TestCompiledFanoutInvertsFanin(t *testing.T) {
	for _, n := range []*Netlist{MustC17(), ALUSlice(4), Random(12, 200, 5)} {
		c, err := n.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		type edge struct{ from, to int32 }
		in, out := map[edge]int{}, map[edge]int{}
		for g := 0; g < c.NumGates(); g++ {
			level := int32(-1)
			for _, f := range c.Fanin(g) {
				in[edge{f, int32(g)}]++
				level = max(level, c.Level[f])
				if c.Tpos[f] >= c.Tpos[g] {
					t.Fatalf("%s: fanin %d of gate %d is not earlier in Order", n.Name, f, g)
				}
			}
			if c.Level[g] != level+1 {
				t.Errorf("%s: gate %d level %d, want %d", n.Name, g, c.Level[g], level+1)
			}
			for _, f := range c.Fanout(g) {
				out[edge{int32(g), f}]++
			}
		}
		if len(in) != len(out) {
			t.Fatalf("%s: %d distinct fanin edges, %d distinct fanout edges", n.Name, len(in), len(out))
		}
		for e, k := range in {
			if out[e] != k {
				t.Fatalf("%s: edge %d->%d appears %d times as fanin, %d as fanout", n.Name, e.from, e.to, k, out[e])
			}
		}
		for root := 0; root < c.NumGates(); root++ {
			seen := map[int32]bool{}
			stack := []int32{int32(root)}
			for len(stack) > 0 {
				g := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, f := range c.Fanout(int(g)) {
					if c.Tpos[f] <= c.Tpos[root] {
						t.Fatalf("%s: gate %d reaches gate %d, which is not later in Order", n.Name, root, f)
					}
					if !seen[f] {
						seen[f] = true
						stack = append(stack, f)
					}
				}
			}
		}
	}
}
