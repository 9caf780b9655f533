package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestDeclaredMetricsMatchCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		code     []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got []string
		for _, m := range set.declared {
			got = append(got, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, code reports %q", m.Name, m.Unit, units[m.Name])
			}
		}
		if !slices.Equal(got, set.code) {
			t.Errorf("BENCHMARK.json declares %v, code reports %v", got, set.code)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// through all of its correctness gates.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	server := filepath.Join(dir, "itrserve")
	if out, err := exec.Command("go", "build", "-o", server, "repro/cmd/itrserve").CombinedOutput(); err != nil {
		t.Fatalf("build itrserve: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			e := &env{name: name, seed: 7, seconds: 1, trace: trace, out: dir, itrserve: server, scale: smokeScale}
			out, err := run(workloads[name], e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.gateFailures) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", name, trace, out.failed, out.attempted, out.gateFailures)
			}
			for _, m := range endToEnd {
				if out.metrics[m] <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, out.metrics[m])
				}
			}
			if trace && out.metrics[name2layer[name]] <= 0 {
				t.Errorf("%s: traced run has %s = %v, want > 0", name, name2layer[name], out.metrics[name2layer[name]])
			}
		}
	}
}

// name2layer names a per-layer metric each workload's traced run must
// measure as non-zero.
var name2layer = map[string]string{
	"atpg":         "atpg.gen_s",
	"diagnose":     "diagnosis.dict_s",
	"cluster-dict": "cluster.fsyncs",
	"serve":        "core.wafer_predict_us",
}

// TestGateFailureCounts checks that a wrong answer fails the run: a
// diagnose pass whose dictionary differs from the first pass's.
func TestGateFailureCounts(t *testing.T) {
	e := &env{name: "diagnose", seed: 7, seconds: 1, out: t.TempDir(), scale: smokeScale}
	r, err := setupDiagnose(e)
	if err != nil {
		t.Fatal(err)
	}
	r.(*diagRunner).dictSig = 1 // as if an earlier build had made another dictionary
	rec := &passRecord{}
	if err := r.pass(nil, rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed != dictBuilds || len(rec.gates) != dictBuilds {
		t.Fatalf("failed=%d gates=%v, want %d failed dictionary gates, one per build", rec.failed, rec.gates, dictBuilds)
	}
}
