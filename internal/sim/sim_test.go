package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestEvalWords(t *testing.T) {
	a, b := logic.Word(0b1100), logic.Word(0b1010)
	cases := []struct {
		t    circuit.GateType
		in   []logic.Word
		want logic.Word
	}{
		{circuit.Buf, []logic.Word{a}, a},
		{circuit.Not, []logic.Word{a}, ^a},
		{circuit.And, []logic.Word{a, b}, a & b},
		{circuit.Nand, []logic.Word{a, b}, ^(a & b)},
		{circuit.Or, []logic.Word{a, b}, a | b},
		{circuit.Nor, []logic.Word{a, b}, ^(a | b)},
		{circuit.Xor, []logic.Word{a, b}, a ^ b},
		{circuit.Xnor, []logic.Word{a, b}, ^(a ^ b)},
		{circuit.And, []logic.Word{a, b, 0b1000}, a & b & 0b1000},
	}
	for _, c := range cases {
		if got := Eval(c.t, c.in); got != c.want {
			t.Errorf("Eval(%v) = %x, want %x", c.t, got, c.want)
		}
	}
}

// TestC17Truth verifies the simulator against c17's known function:
// G22 = NAND(G10,G16), etc., computed independently.
func TestC17Truth(t *testing.T) {
	n := circuit.MustC17()
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := func(in []bool) (bool, bool) {
		g1, g2, g3, g6, g7 := in[0], in[1], in[2], in[3], in[4]
		nand := func(a, b bool) bool { return !(a && b) }
		g10 := nand(g1, g3)
		g11 := nand(g3, g6)
		g16 := nand(g2, g11)
		g19 := nand(g11, g7)
		return nand(g10, g16), nand(g16, g19)
	}
	p := logic.Exhaustive(5)
	r := s.Run(p)
	for pat := 0; pat < p.N; pat++ {
		w22, w23 := ref(p.Pattern(pat))
		if r.Get(pat, 0) != w22 || r.Get(pat, 1) != w23 {
			t.Fatalf("pattern %05b: got (%v,%v), want (%v,%v)",
				pat, r.Get(pat, 0), r.Get(pat, 1), w22, w23)
		}
	}
}

// TestAdderArithmetic checks the ripple adder against integer addition over
// random operands, exercising multi-word pattern sets.
func TestAdderArithmetic(t *testing.T) {
	const w = 8
	n := circuit.RippleAdder(w)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p := logic.NewPatternSet(len(n.PIs), 200)
	type opnd struct{ a, b, cin int }
	ops := make([]opnd, 200)
	// PI order is a0,b0,a1,b1,...,cin as generated.
	idx := n.InputIndex()
	pin := func(name string) int {
		g, ok := n.GateByName(name)
		if !ok {
			t.Fatalf("missing input %s", name)
		}
		return idx[g.ID]
	}
	for k := range ops {
		ops[k] = opnd{rng.Intn(1 << w), rng.Intn(1 << w), rng.Intn(2)}
		for i := 0; i < w; i++ {
			p.Set(k, pin("a"+itoa(i)), ops[k].a>>uint(i)&1 == 1)
			p.Set(k, pin("b"+itoa(i)), ops[k].b>>uint(i)&1 == 1)
		}
		p.Set(k, pin("cin"), ops[k].cin == 1)
	}
	r := s.Run(p)
	poIdx := map[string]int{}
	for i, po := range n.POs {
		poIdx[n.Gates[po].Name] = i
	}
	for k, op := range ops {
		want := op.a + op.b + op.cin
		got := 0
		for i := 0; i < w; i++ {
			if r.Get(k, poIdx["s"+itoa(i)]) {
				got |= 1 << uint(i)
			}
		}
		if r.Get(k, poIdx["cout"]) {
			got |= 1 << w
		}
		if got != want {
			t.Fatalf("pattern %d: %d+%d+%d = %d, simulator says %d", k, op.a, op.b, op.cin, want, got)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

// TestMultiplierArithmetic validates the array multiplier on exhaustive 4x4.
func TestMultiplierArithmetic(t *testing.T) {
	const w = 4
	n := circuit.ArrayMultiplier(w)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	idx := n.InputIndex()
	pin := func(name string) int {
		g, _ := n.GateByName(name)
		return idx[g.ID]
	}
	poIdx := map[string]int{}
	for i, po := range n.POs {
		poIdx[n.Gates[po].Name] = i
	}
	for a := 0; a < 1<<w; a++ {
		for b := 0; b < 1<<w; b++ {
			bits := make([]bool, len(n.PIs))
			for i := 0; i < w; i++ {
				bits[pin("a"+itoa(i))] = a>>uint(i)&1 == 1
				bits[pin("b"+itoa(i))] = b>>uint(i)&1 == 1
			}
			out := s.RunPattern(bits)
			got := 0
			for i := 0; i < 2*w; i++ {
				if out[poIdx["m"+itoa(i)]] {
					got |= 1 << uint(i)
				}
			}
			if got != a*b {
				t.Fatalf("%d*%d = %d, simulator says %d", a, b, a*b, got)
			}
		}
	}
}

// TestRunPatternMatchesRun cross-checks the one-pattern entry point against
// the bit-parallel one on random circuits and random stimulus: pattern k of
// Run's response equals RunPattern applied to pattern k alone.
func TestRunPatternMatchesRun(t *testing.T) {
	for _, c := range []*circuit.Netlist{
		circuit.MustC17(),
		circuit.ALUSlice(4),
		circuit.Random(12, 150, 5),
		circuit.Random(8, 60, 9),
	} {
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		p := logic.NewPatternSet(len(c.PIs), 256)
		p.RandFill(rng.Uint64)
		r := s.Run(p)
		for k := 0; k < p.N; k++ {
			got := s.RunPattern(p.Pattern(k))
			for o := range c.POs {
				if got[o] != r.Get(k, o) {
					t.Fatalf("%s pattern %d output %d: RunPattern %v, Run %v",
						c.Name, k, o, got[o], r.Get(k, o))
				}
			}
		}
	}
}

// Property: the simulators keep no state between blocks that leaks into
// the result. After a random walk of blocks, a probe block on a reused
// Simulator and a reused Wide gives the same words as on fresh ones.
func TestSimulatorStateless(t *testing.T) {
	n := circuit.Random(10, 100, 13)
	c, err := circuit.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	const w = 4
	s, ws := NewCompiled(c), NewWideCompiled(c, w)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fill := func(pi []logic.Word) []logic.Word {
			for i := range pi {
				pi[i] = logic.Word(rng.Uint64())
			}
			return pi
		}
		for i := 0; i < 10; i++ {
			s.Block(fill(make([]logic.Word, len(n.PIs))))
			ws.Block(fill(make([]logic.Word, len(n.PIs)*w)), 1+rng.Intn(w))
		}
		probe := fill(make([]logic.Word, len(n.PIs)))
		wprobe := fill(make([]logic.Word, len(n.PIs)*w))
		got, want := s.Block(probe), NewCompiled(c).Block(probe)
		wgot, wwant := ws.Block(wprobe, w), NewWideCompiled(c, w).Block(wprobe, w)
		for g := range want {
			if got[g] != want[g] {
				return false
			}
		}
		for i := range wwant {
			if wgot[i] != wwant[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRunPanicsOnWidthMismatch(t *testing.T) {
	c := circuit.MustC17()
	s, _ := New(c)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch must panic")
		}
	}()
	s.Run(logic.NewPatternSet(3, 10))
}

func BenchmarkParallelSim(b *testing.B) {
	c := circuit.Random(32, 1200, 2)
	s, err := New(c)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	p := logic.NewPatternSet(len(c.PIs), 1024)
	p.RandFill(rng.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(p)
	}
	b.ReportMetric(float64(1024), "patterns/op")
}
