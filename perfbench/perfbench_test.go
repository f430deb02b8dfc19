package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// tiny shrinks a workload to test size, keeping its graph family and path.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.n, w.graphs = 1024, 2
	if w.serve {
		w.rates = []float64{20, 40, 60}
	}
	return w
}

func tinyConfig(traced bool) runConfig {
	return runConfig{
		seed:    7,
		timed:   600 * time.Millisecond,
		traced:  traced,
		clients: 2,
		probe:   1500 * time.Millisecond, // six requests, one of them inline
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's workload and metric
// lists in step with the program. The program may run workloads the file
// does not gate.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, bw := range bf.Workloads {
		w, ok := lookupWorkload(bw.Name)
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json workload %q is not in the program", bw.Name)
		case bw.Why != w.why:
			t.Errorf("%s: why %q, program has %q", w.name, bw.Why, w.why)
		}
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndJSON) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEndJSON)
	}
	if !reflect.DeepEqual(layer, perLayerJSON) {
		t.Errorf("per_layer %v, program has %v", layer, perLayerJSON)
	}
}

// TestTinyWorkloads runs every workload at test size, untraced and traced,
// and checks that it succeeds and reports every contract metric with the
// unit BENCHMARK.json gives it.
func TestTinyWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), tiny(t, name), tinyConfig(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 {
				t.Errorf("%s traced=%v: %d failures: %v", name, traced, rep.Failed, rep.Failures)
			}
			s := rep.summary()
			if !s.Correct || s.Attempted < 1 {
				t.Errorf("%s traced=%v: summary %+v", name, traced, s)
			}
			want := endToEndJSON
			if traced {
				want = perLayerJSON
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(s.Metrics), len(want))
			}
			for _, n := range want {
				m, ok := s.Metrics[n]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, n)
					continue
				}
				if m.Unit != units[n] {
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", name, traced, n, m.Unit, units[n])
				}
			}
			if traced {
				if gap, _ := rep.metric("trace.reconcile_gap_max"); gap.Value > 0.05 {
					t.Errorf("%s: round spans miss the solve wall time by %.3f", name, gap.Value)
				}
				if len(rep.spans.spans) == 0 || len(rep.SelfMS) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			}
		}
	}
}

// TestCorruptedResultFails serves results with their last element dropped:
// every one must count as a failed operation.
func TestCorruptedResultFails(t *testing.T) {
	corrupt := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/solve" {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var sr serve.SolveResponse
			if json.Unmarshal(rec.Body.Bytes(), &sr) == nil && len(sr.Edges)+len(sr.Nodes) > 0 {
				if len(sr.Edges) > 0 {
					sr.Edges = sr.Edges[:len(sr.Edges)-1]
				} else {
					sr.Nodes = sr.Nodes[:len(sr.Nodes)-1]
				}
				w.WriteHeader(rec.Code)
				_ = json.NewEncoder(w).Encode(&sr)
				return
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes()) // streamed replies pass unchanged
		})
	}
	cfg := tinyConfig(false)
	cfg.wrap = corrupt
	w := tiny(t, "serve-mixed")
	rep, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-ups are unstreamed, so at least one per (graph, problem) fails.
	if rep.Failed < 2*w.graphs {
		t.Fatalf("%d failures, want at least %d", rep.Failed, 2*w.graphs)
	}
	if rep.summary().Correct {
		t.Fatal("summary reports correct despite corrupted results")
	}
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &out); code != 2 {
		t.Fatalf("unknown workload exit code %d, want 2", code)
	}
}

// TestVerifyRejectsWrongResults checks the output check directly: a result
// that is not maximal fails, and a reordered one fails the digest.
func TestVerifyRejectsWrongResults(t *testing.T) {
	w := tiny(t, "engine-sparsify")
	eng, insts, err := setupEngine(context.Background(), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := insts[0].g
	out, err := call(context.Background(), eng, g, matching)
	if err != nil {
		t.Fatal(err)
	}
	short := out
	short.edges = out.edges[:len(out.edges)-1]
	if _, err := short.verify(g, matching); err == nil {
		t.Error("a matching with one edge dropped passed the check")
	}
	swapped := out
	swapped.edges = append([]repro.Edge(nil), out.edges...)
	swapped.edges[0], swapped.edges[1] = swapped.edges[1], swapped.edges[0]
	r, err := swapped.verify(g, matching)
	if err != nil {
		t.Fatal(err)
	}
	if r.digest == insts[0].digest[matching] {
		t.Error("reordered matching has the reference digest")
	}
}

// TestStallShowsInOpenLoopLatency stalls one served request with a single
// caller: the requests that fell due during the stall must show it in their
// latency, which runs from due time, although their own exchanges are fast.
func TestStallShowsInOpenLoopLatency(t *testing.T) {
	const stall = 400 * time.Millisecond
	var armed atomic.Bool
	var stalled atomic.Int32
	cfg := tinyConfig(false)
	cfg.clients = 1
	cfg.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if armed.Load() && r.URL.Path == "/v1/solve" && stalled.Add(1) == 3 {
				time.Sleep(stall)
			}
			next.ServeHTTP(w, r)
		})
	}
	w := tiny(t, "serve-mixed")
	rep := &report{}
	ctx := context.Background()
	eng, ref, err := setupEngine(ctx, w, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := startServe(ctx, rep, ref, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	armed.Store(true)
	run, err := runOpenLoop(ctx, rep, rig, w, cfg, ref, eng, []float64{40}, []time.Duration{time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	ps := run.phases[0]
	hit := 0
	for i, lat := range ps.all {
		if lat > ms(stall)/2 && ps.late[i] > ms(stall)/4 {
			hit++ // delayed by the stall, not by its own exchange
		}
	}
	if hit < 3 {
		t.Fatalf("%d requests show the stall; latencies %v", hit, ps.all)
	}
	if q := quantile(ps.late, 0.99); q < ms(stall)/2 {
		t.Fatalf("generator lateness p99 %.1f ms hides a %v stall", q, stall)
	}
}

func TestPlanMix(t *testing.T) {
	reqs := plan([]float64{10, 20}, []time.Duration{2 * time.Second, 3 * time.Second}, 3)
	if len(reqs) != 80 {
		t.Fatalf("%d requests, want 80", len(reqs))
	}
	var mm, stream, inline int
	for _, q := range reqs {
		if q.p == matching {
			mm++
		}
		if q.stream {
			stream++
		}
		if q.ws < 0 {
			inline++
		} else if q.ws >= 3 {
			t.Fatalf("working-set index %d of 3", q.ws)
		}
	}
	if mm != 40 || stream != 40 || inline != 16 {
		t.Fatalf("matching %d, streamed %d, inline %d of 80", mm, stream, inline)
	}
	if reqs[20].due != 2*time.Second || reqs[20].phase != 1 {
		t.Fatalf("request 20 due %v in phase %d", reqs[20].due, reqs[20].phase)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
