package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// endToEndJSON and perLayerJSON are the metric lists of BENCHMARK.json, in
// its order (perfbench_test.go keeps the two in step). Every name here is
// measured on every workload.
var endToEndJSON = []string{
	"setup_s", "mm_ms_p50", "mm_ms_p90", "mis_ms_p50", "mis_ms_p90",
	"edges_per_s", "mpc_rounds", "peak_rss_mb",
}

var perLayerJSON = []string{
	"engine.tail_ms_p50", "engine.prepare_us_per_kedge", "engine.allocs_per_solve", "engine.alloc_kb_per_solve", "engine.sparsify_frac",
	"round.per_solve", "round.ms_p50", "round.dense_ms_sum", "round.sparse_ms_sum", "round.selected_frac",
	"condexp.seeds_per_solve", "condexp.batches_per_solve", "condexp.found_frac", "condexp.ns_per_edge_seed",
	"sparsify.edges_ms", "sparsify.nodes_ms", "sparsify.stages", "sparsify.stage_seeds", "sparsify.estar_deg_ratio", "sparsify.fallbacks",
	"kernel.kwise_ns_per_key", "kernel.pairwise_ns_per_key", "kernel.bytes_per_key",
	"graph.build_ns_per_edge", "graph.fingerprint_ns_per_edge", "graph.rebuild_ns_per_edge", "graph.square_ms", "graph.linegraph_ms",
	"coloring.linial_g2_ms", "coloring.colors",
	"parallel.speedup",
	"simcost.peak_words_ratio", "simcost.violations",
	"serve.solve_ms_p50", "serve.overhead_ms_p50", "serve.overhead_ms_p90", "serve.direct_ms_p50",
	"serve.inline_ms_p50", "serve.byfp_ms_p50", "serve.resp_kb_p50", "serve.rejected", "serve.expired",
	"serve.prepared_graphs", "serve.gen_late_ms_p99",
	"gc.cycles_per_solve", "gc.pause_ms_sum",
	"share.kernel", "share.sparsify", "share.coloring", "share.graph_square", "share.serve_overhead",
	"trace.overhead_frac", "trace.reconcile_gap_max",
}

// metric is one named measurement. NA marks a metric that does not apply
// to the workload (it is printed as n/a, never as zero).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	NA    bool    `json:"na,omitempty"`
}

// selfTime is a span name's summed self time: duration minus the part its
// children cover.
type selfTime struct {
	Name  string  `json:"name"`
	MS    float64 `json:"ms"`
	Count int     `json:"count"`
}

// report is everything one run measured.
type report struct {
	Workload     string     `json:"workload"`
	Seed         uint64     `json:"seed"`
	Traced       bool       `json:"traced"`
	TimedSeconds float64    `json:"timed_seconds"`
	Host         host       `json:"host"`
	Attempted    int        `json:"attempted"`
	Failed       int        `json:"failed"`
	Failures     []string   `json:"failures,omitempty"`
	EndToEnd     []metric   `json:"end_to_end"`
	PerLayer     []metric   `json:"per_layer,omitempty"`
	SelfMS       []selfTime `json:"self_ms,omitempty"`

	spans *tracer
}

func (r *report) metric(name string) (metric, bool) {
	for _, ms := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// maxFailures bounds the failure descriptions kept in the report.
const maxFailures = 8

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// metricSet accumulates metrics in report order. A NaN value (an empty
// sample, a zero denominator) is recorded as not applicable.
type metricSet []metric

func (s *metricSet) add(name, unit string, v float64) {
	*s = append(*s, metric{Name: name, Unit: unit, Value: v, NA: math.IsNaN(v) || math.IsInf(v, 0)})
}

func (s *metricSet) na(name, unit string) {
	*s = append(*s, metric{Name: name, Unit: unit, NA: true})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host identifies the machine and the code a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision run.sh stamps into the binary when it
	// builds inside a git checkout, "unknown" otherwise.
	Commit string `json:"commit"`
	// SourceDigest hashes the module's Go sources and go.mod, so results
	// from a checkout without VCS metadata still name the code they ran.
	SourceDigest string `json:"source_digest"`
}

func (h host) String() string {
	return fmt.Sprintf("%s; nproc %d; GOMAXPROCS %d; %s; commit %s; source %s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceDigest)
}

func hostFingerprint() host {
	return host{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceDigest: sourceDigest(),
	}
}

// commit is set at link time by run.sh (-X main.commit=<revision>).
var commit = "unknown"

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go file and go.mod of the repository (the
// current directory when run from the checkout root, its parent when run
// from perfbench/ as the tests do), in path order, skipping dot
// directories such as the build output. It returns "unknown" when no
// source is found.
func sourceDigest() string {
	root := ".."
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		root = "."
	}
	h := sha256.New()
	found := false
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		found = true
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil || !found {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
