package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/check"
)

// workload is one set of inputs and one way of driving the system.
type workload struct {
	name   string
	why    string
	family string // repro.Generate family of every graph
	n, deg int
	graphs int            // working-set size
	want   repro.Strategy // the strategy auto must pick on every graph

	// serve workloads run open loop against the HTTP handler.
	serve  bool
	rates  []float64 // arrival-rate ladder, req/s
	shares []float64 // share of the timed phase spent at each rate
}

// latencyLimit is the serve-mixed latency limit on p90 of all requests at
// one ladder rate; slo_rps is the highest rate that meets it.
const latencyLimit = 150 * time.Millisecond

// requestTimeout bounds every served request; one that runs out counts as
// failed.
const requestTimeout = 20 * time.Second

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

var workloads = []workload{
	{
		name:   "engine-sparsify",
		why:    "closed loop, warm Engine, G(n,m) n=4096 deg 16 (auto->sparsify): stresses sparsify stage search and k-wise kernel; bypasses coloring, graph.square, serve",
		family: "gnm", n: 4096, deg: 16, graphs: 8,
		want: repro.StrategySparsify,
	},
	{
		name:   "engine-lowdeg",
		why:    "closed loop, warm Engine, random 4-regular n=4096 (auto->lowdeg): stresses Linial G^2 coloring, graph.square, line graph; bypasses sparsify and k-wise kernel",
		family: "regular", n: 4096, deg: 4, graphs: 24,
		want: repro.StrategyLowDegree,
	},
	{
		name:   "serve-mixed",
		why:    "open loop over HTTP at 10/13/36 req/s, powerlaw n=4096 deg 8, 20% fresh inline graphs, half streamed: stresses serve, prepare and sparse rounds",
		family: "powerlaw", n: 4096, deg: 8, graphs: 32,
		want:   repro.StrategySparsify,
		serve:  true,
		rates:  []float64{10, 13, 36},
		shares: []float64{0.1, 0.78, 0.12},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	timed   time.Duration
	traced  bool
	outDir  string
	clients int           // open-loop caller goroutines and connections
	probe   time.Duration // length of a traced engine run's serve probe

	// wrap, when set, wraps the served handler (tests inject stalls and
	// corrupted responses through it).
	wrap func(http.Handler) http.Handler
}

// defaultClients is the open-loop caller count: one per usable CPU.
func defaultClients() int { return runtime.GOMAXPROCS(0) }

// problem is one of the two solved problems.
type problem int

const (
	matching problem = iota
	mis
)

var problems = []problem{matching, mis}

func (p problem) String() string {
	if p == matching {
		return "matching"
	}
	return "mis"
}

// instance is one input graph with its reference results: the digests,
// strategies and cost reports of a direct Engine solve per problem.
type instance struct {
	g      *repro.Graph
	digest [2]uint64
	strat  [2]repro.Strategy
	costs  [2]*repro.CostReport
}

func (in *instance) set(p problem, r result) {
	in.digest[p] = r.digest
	in.strat[p] = r.strat
	in.costs[p] = r.costs
}

// splitmix64 derives independent per-graph seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// freshBase offsets the seeds of the serve workloads' fresh inline graphs
// from those of the working set.
const freshBase = 1 << 20

// generate builds count graphs of w's family, the i-th from seed and
// first+i.
func generate(w workload, seed uint64, first, count int) ([]*instance, error) {
	out := make([]*instance, count)
	for i := range out {
		g, err := repro.Generate(w.family, w.n, w.deg, splitmix64(seed*0x100000001b3+uint64(first+i)))
		if err != nil {
			return nil, err
		}
		if g.M() == 0 {
			return nil, fmt.Errorf("graph %d of %s has no edges", first+i, w.family)
		}
		out[i] = &instance{g: g}
	}
	return out, nil
}

// result is one verified solve.
type result struct {
	digest uint64
	strat  repro.Strategy
	costs  *repro.CostReport
}

// output is one Engine solve's raw result.
type output struct {
	edges []repro.Edge
	nodes []repro.NodeID
	strat repro.Strategy
	costs *repro.CostReport
}

// call runs one Engine solve of problem p.
func call(ctx context.Context, eng *repro.Engine, g *repro.Graph, p problem, opts ...repro.SolveOption) (output, error) {
	if p == matching {
		r, err := eng.MaximalMatchingCtx(ctx, g, opts...)
		if err != nil {
			return output{}, err
		}
		return output{edges: r.Edges, strat: r.Strategy, costs: r.Costs}, nil
	}
	r, err := eng.MaximalIndependentSetCtx(ctx, g, opts...)
	if err != nil {
		return output{}, err
	}
	return output{nodes: r.Nodes, strat: r.Strategy, costs: r.Costs}, nil
}

// verify checks the output with the check package and digests it.
func (o output) verify(g *repro.Graph, p problem) (result, error) {
	r := result{strat: o.strat, costs: o.costs}
	if p == matching {
		if err := checkMatching(g, o.edges); err != nil {
			return result{}, err
		}
		r.digest = digestEdges(o.edges)
		return r, nil
	}
	if err := checkMIS(g, o.nodes); err != nil {
		return result{}, err
	}
	r.digest = digestNodes(o.nodes)
	return r, nil
}

// solve runs one Engine solve and verifies its output.
func solve(ctx context.Context, eng *repro.Engine, g *repro.Graph, p problem, opts ...repro.SolveOption) (result, error) {
	out, err := call(ctx, eng, g, p, opts...)
	if err != nil {
		return result{}, err
	}
	return out.verify(g, p)
}

func checkMatching(g *repro.Graph, edges []repro.Edge) error {
	if ok, why := check.IsMaximalMatching(g, edges); !ok {
		return fmt.Errorf("not a maximal matching: %s", why)
	}
	return nil
}

func checkMIS(g *repro.Graph, nodes []repro.NodeID) error {
	if ok, why := check.IsMaximalIS(g, nodes); !ok {
		return fmt.Errorf("not a maximal independent set: %s", why)
	}
	return nil
}

// digestEdges and digestNodes hash a result in its output order: the
// determinism contract makes the order part of the result.
func digestEdges(edges []repro.Edge) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	for _, e := range edges {
		putU32(buf, uint32(e.U))
		putU32(buf[4:], uint32(e.V))
		h.Write(buf)
	}
	return h.Sum64()
}

func digestNodes(nodes []repro.NodeID) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for _, v := range nodes {
		putU32(buf, uint32(v))
		h.Write(buf)
	}
	return h.Sum64()
}

func putU32(b []byte, x uint32) {
	b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
}

var errDigest = errors.New("result differs from the direct Engine result")

// against returns err, or errDigest when the verified result r differs
// from the reference digest want.
func against(r result, err error, want uint64) error {
	if err == nil && r.digest != want {
		return errDigest
	}
	return err
}

// setupEngine is one engine-workload set-up: generate the working set,
// start an Engine and warm it with one verified solve per (graph, problem),
// whose results become the reference digests.
func setupEngine(ctx context.Context, w workload, seed uint64) (*repro.Engine, []*instance, error) {
	insts, err := generate(w, seed, 0, w.graphs)
	if err != nil {
		return nil, nil, err
	}
	eng := repro.NewEngine(nil)
	for i, in := range insts {
		for _, p := range problems {
			r, err := solve(ctx, eng, in.g, p)
			if err != nil {
				return nil, nil, fmt.Errorf("warm-up %s on graph %d: %w", p, i, err)
			}
			if w.want != "" && r.strat != w.want {
				return nil, nil, fmt.Errorf("graph %d: auto picked %s for %s, the workload needs %s", i, r.strat, p, w.want)
			}
			in.set(p, r)
		}
	}
	return eng, insts, nil
}

// sameDigests records a failure for every (graph, problem) whose digest
// differs between two set-ups of the same seed.
func sameDigests(rep *report, a, b []*instance) {
	for i := range a {
		for _, p := range problems {
			rep.Attempted++
			if a[i].digest[p] != b[i].digest[p] {
				rep.fail("graph %d %s: set-ups of one seed disagree", i, p)
			}
		}
	}
}

// checkSerial re-solves every (graph, problem) at Parallelism 1 and
// requires the direct digest: the determinism contract.
func checkSerial(ctx context.Context, rep *report, eng *repro.Engine, insts []*instance) {
	for i, in := range insts {
		for _, p := range problems {
			rep.Attempted++
			r, err := solve(ctx, eng, in.g, p, repro.WithParallelism(1))
			if err := against(r, err, in.digest[p]); err != nil {
				rep.fail("graph %d %s at Parallelism 1: %v", i, p, err)
			}
		}
	}
}

// mpcRounds sums CostReport.Rounds over the distinct (graph, problem)
// pairs.
func mpcRounds(insts []*instance) float64 {
	total := 0
	for _, in := range insts {
		for _, p := range problems {
			if in.costs[p] != nil {
				total += in.costs[p].Rounds
			}
		}
	}
	return float64(total)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gcSnapshot brackets a phase for the runtime metrics.
type gcSnapshot struct{ cycles, pauseNs uint64 }

func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{cycles: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

// runWorkload sets up, runs the timed phase, verifies and, when traced,
// probes the layers.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*report, error) {
	rep := &report{
		Workload:     w.name,
		Seed:         cfg.seed,
		Traced:       cfg.traced,
		TimedSeconds: cfg.timed.Seconds(),
		Host:         hostFingerprint(),
	}
	if cfg.traced {
		rep.spans = newTracer()
	}
	var err error
	if w.serve {
		err = runServeWorkload(ctx, w, cfg, rep)
	} else {
		err = runEngineWorkload(ctx, w, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.spans != nil {
		rep.SelfMS = rep.spans.selfTimes()
	}
	return rep, nil
}

// engineRun is what the closed loop measured.
type engineRun struct {
	lat     [2][]float64 // untraced latencies, ms
	traced  [2][]float64 // traced latencies, ms (traced runs only)
	records []solveRecord
	edges   float64
	wall    time.Duration
	gc      [2]gcSnapshot
	solves  int
}

func runEngineWorkload(ctx context.Context, w workload, cfg runConfig, rep *report) error {
	var setups []float64
	var eng *repro.Engine
	var insts []*instance
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		e, in, err := setupEngine(ctx, w, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.Attempted += 2 * len(in)
		if insts != nil {
			sameDigests(rep, insts, in)
		}
		eng, insts = e, in
	}

	run := closedLoop(ctx, rep, eng, insts, cfg)
	checkSerial(ctx, rep, eng, insts)

	var e2e metricSet
	e2e.add("setup_s", "s", median(setups))
	addLatencies(&e2e, run.lat)
	e2e.add("edges_per_s", "edges/s", run.edges/run.wall.Seconds())
	e2e.add("mpc_rounds", "count", mpcRounds(insts))
	e2e.add("peak_rss_mb", "MiB", peakRSSMB())
	e2e.na("ttfr_ms_p50", "ms")
	e2e.na("slo_rps", "req/s")
	e2e.add("fail_frac", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	e2e.add("mm_samples", "count", float64(len(run.lat[matching])))
	e2e.add("mis_samples", "count", float64(len(run.lat[mis])))
	rep.EndToEnd = e2e

	if cfg.traced {
		return traceEngineWorkload(ctx, w, cfg, rep, eng, insts, run)
	}
	return nil
}

// addLatencies adds the four latency quantiles.
func addLatencies(s *metricSet, lat [2][]float64) {
	s.add("mm_ms_p50", "ms", median(lat[matching]))
	s.add("mm_ms_p90", "ms", quantile(lat[matching], 0.9))
	s.add("mis_ms_p50", "ms", median(lat[mis]))
	s.add("mis_ms_p90", "ms", quantile(lat[mis], 0.9))
}

// closedLoop is the engine workloads' timed phase: one caller, matching
// and MIS alternating over the working set, each latency timed from the call
// to a verified result. A traced run alternates whole passes over the
// working set between untraced and traced solves, so the tracing overhead
// is measured on the same graphs in the same run.
func closedLoop(ctx context.Context, rep *report, eng *repro.Engine, insts []*instance, cfg runConfig) engineRun {
	var run engineRun
	pass := 2 * len(insts)
	run.gc[0] = readGC()
	start := time.Now()
	deadline := start.Add(cfg.timed)
	for i := 0; time.Now().Before(deadline); i++ {
		idx := (i / 2) % len(insts)
		in := insts[idx]
		p := problems[i%2]
		traced := cfg.traced && (i/pass)%2 == 1
		rep.Attempted++
		t0 := time.Now()
		var r result
		var err error
		if traced {
			var rec solveRecord
			r, rec, err = tracedSolve(ctx, rep.spans, eng, in.g, p)
			run.records = append(run.records, rec)
		} else {
			r, err = solve(ctx, eng, in.g, p)
		}
		err = against(r, err, in.digest[p])
		lat := msSince(t0)
		if err != nil {
			rep.fail("graph %d %s: %v", idx, p, err)
			continue
		}
		run.solves++
		run.edges += float64(in.g.M())
		if traced {
			run.traced[p] = append(run.traced[p], lat)
		} else {
			run.lat[p] = append(run.lat[p], lat)
		}
	}
	run.wall = time.Since(start)
	run.gc[1] = readGC()
	return run
}

// overheadFrac is the tracing overhead: the traced median latency over the
// untraced one, minus one, averaged over the two problems.
func overheadFrac(untraced, traced [2][]float64) float64 {
	var fr []float64
	for _, p := range problems {
		if len(untraced[p]) > 0 && len(traced[p]) > 0 {
			fr = append(fr, median(traced[p])/median(untraced[p])-1)
		}
	}
	return mean(fr)
}
