// Command perfbench is the repository benchmark: it drives the test stack
// (ATPG, volume diagnosis, the journaled cluster dictionary and the online
// serving daemon) through its public entry points on inputs generated from
// a seed, checks every output, and prints its metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	perfbench --workload atpg|diagnose|cluster-dict|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
// Any failed correctness gate makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeed is the seed whose outputs are pinned by exact values (pins.go).
const defaultSeed = 1

// endToEnd and perLayer are the metric names BENCHMARK.json declares; every
// run reports each of them (smoke_test.go keeps the three lists in step).
var endToEnd = []string{"setup_s", "job_s", "minor_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb"}

var perLayer = []string{
	"circuit.compile_ms",
	"atpg.gen_s", "atpg.drop_s", "atpg.rest_s", "atpg.backtracks", "atpg.redundant", "atpg.aborted", "atpg.alloc_mb",
	"fault.dict_alloc_mb", "fault.sig_nonzero_share", "fault.detect_ms", "fault.local_dict_s",
	"diagnosis.dict_s", "diagnosis.candidate_share", "diagnosis.alloc_kb_per_log",
	"cluster.dict_s", "cluster.detect_s",
	"cluster.shards_dispatched", "cluster.redispatches", "cluster.duplicates", "cluster.shard_failures",
	"cluster.dispatch_useful_ratio", "cluster.journal_bytes", "cluster.fsyncs", "cluster.fsync_ms_p50",
	"cluster.fsync_share", "cluster.wire_bytes", "cluster.alloc_mb", "cluster.overhead_ratio",
	"serve.server_p50_ms", "serve.server_p90_ms", "serve.shed", "serve.errors", "serve.panics",
	"serve.alloc_kb_per_req", "serve.gc_per_kreq", "serve.sat_rps", "serve.gen_late_ms_p90",
	"core.wafer_predict_us", "wafer.encode_us", "hdc.match_us", "outlier.score_us",
	"bench.self_s", "atpg.self_s", "diagnosis.self_s",
	"cluster.self_s", "cluster.journal.self_s", "serve.self_s", "core.self_s", "wafer.self_s", "hdc.self_s", "outlier.self_s",
	"trace.overhead_job_ms", "trace.overhead_p50_ms", "error_rate",
}

// units gives each metric's unit; a name missing here is a programming error
// caught by the smoke test.
var units = map[string]string{
	"setup_s": "s", "job_s": "s", "minor_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "peak_rss_mb": "MB",
}

func init() {
	for _, name := range perLayer {
		units[name] = unitFromName(name)
	}
}

// unitFromName derives a per-layer metric's unit from its suffix.
func unitFromName(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_p90"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_kb_per_log"):
		return "KB/log"
	case strings.HasSuffix(name, "_kb_per_req"):
		return "KB/req"
	case strings.HasSuffix(name, "_per_kreq"):
		return "1/kreq"
	case strings.HasSuffix(name, "_rps"):
		return "req/s"
	case strings.HasSuffix(name, "_bytes"):
		return "B/pass"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_rate"):
		return "ratio"
	}
	return "count"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: atpg, diagnose, cluster-dict or serve")
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds per timed region")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build", "directory for journals and span files")
		server  = flag.String("itrserve", ".bench_build/itrserve", "itrserve binary for the serve workload")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	env := &env{
		name: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		out: *outDir, itrserve: *server, scale: fullScale,
	}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHost()
	out, err := run(setup, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range out.lines {
		fmt.Println(line)
	}
	for _, g := range out.gateFailures {
		fmt.Fprintln(os.Stderr, "perfbench: gate failed:", g)
	}
	res := result{
		Correct:   len(out.gateFailures) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	names := endToEnd
	if env.trace {
		names = perLayer
	}
	for _, n := range names {
		res.Metrics[n] = metricValue{Value: out.metrics[n], Unit: units[n]}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost prints the host envelope every result is read against.
func printHost() {
	var si syscall.Sysinfo_t
	ramGB := 0.0
	if syscall.Sysinfo(&si) == nil {
		ramGB = float64(si.Totalram) * float64(si.Unit) / (1 << 30)
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d ram_gb=%.1f cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), ramGB, cpuModel(), runtime.Version())
}

// cpuModel reads the CPU model name, or "unknown" where /proc lacks it.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
