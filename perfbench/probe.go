package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/sparsify"
)

// serveProbe is how long a traced run of an engine workload drives its
// graphs through the serve layer, at serveProbeRate requests per second
// (about a fifth of the closed-loop rate, so the probe sees little queueing).
const (
	serveProbe     = 4 * time.Second
	serveProbeRate = 4
)

// probeGraphs bounds how many working-set graphs the costlier layer probes
// (sparsify, graph square and line graph, colouring) run on.
const probeGraphs = 4

// kernelSeeds is how many seeds each kernel timing evaluates the key
// vector under.
const kernelSeeds = 64

// layerTimes are the probe times the layer shares are computed from, each
// summed over the (graph, problem) pairs of the first probeGraphs graphs.
type layerTimes struct {
	solveMS    float64 // warm direct solves
	sparsifyMS float64 // first-round sparsification, pairs on the sparsify path
	kwiseMS    float64 // k-wise kernel time for that first round's stage searches
	coloringMS float64 // LinialG2 of the graph the Section 5 path colours
	squareMS   float64 // graph square (and line graph) of the Section 5 pairs
}

// traceEngineWorkload reports the per-layer metrics of an engine workload:
// round metrics from the closed loop's traced solves, the layer probes, and
// a short serve probe on the same graphs.
func traceEngineWorkload(ctx context.Context, w workload, cfg runConfig, rep *report, eng *repro.Engine, insts []*instance, run engineRun) error {
	var s metricSet
	addRoundMetrics(&s, run.records)
	s.add("trace.overhead_frac", "ratio", overheadFrac(run.lat, run.traced))
	addGC(&s, run.gc, run.solves)
	lt := probeLayers(ctx, rep, eng, insts, &s)

	rig, err := startServe(ctx, rep, insts, insts, cfg)
	if err != nil {
		return err
	}
	defer rig.close()
	sr, err := runOpenLoop(ctx, rep, rig, w, cfg, insts, eng, []float64{serveProbeRate}, []time.Duration{cfg.probe})
	if err != nil {
		return err
	}
	addServeMetrics(ctx, rep, &s, rig, sr, sr.phases[0], insts)
	addShares(&s, lt, sr.phases[0])
	rep.PerLayer = s
	return nil
}

// traceServeWorkload reports the per-layer metrics of a serve workload:
// serve metrics from the open loop's middle rate, round metrics from
// direct solves of the working set (untraced and traced interleaved), and
// the layer probes.
func traceServeWorkload(ctx context.Context, w workload, cfg runConfig, rep *report, eng *repro.Engine, ref []*instance, rig *serveRig, run *serveRun) error {
	var s metricSet
	var recs []solveRecord
	var untraced, traced [2][]float64
	for pass := 0; pass < 2; pass++ {
		for i, in := range ref[:min(probeGraphs, len(ref))] {
			for _, p := range problems {
				rep.Attempted += 2
				t0 := time.Now()
				r, err := solve(ctx, eng, in.g, p)
				untraced[p] = append(untraced[p], msSince(t0))
				if err := against(r, err, in.digest[p]); err != nil {
					rep.fail("graph %d %s: %v", i, p, err)
				}
				t0 = time.Now()
				r, rec, err := tracedSolve(ctx, rep.spans, eng, in.g, p)
				traced[p] = append(traced[p], msSince(t0))
				if err := against(r, err, in.digest[p]); err != nil {
					rep.fail("graph %d %s traced: %v", i, p, err)
					continue
				}
				recs = append(recs, rec)
			}
		}
	}
	addRoundMetrics(&s, recs)
	s.add("trace.overhead_frac", "ratio", overheadFrac(untraced, traced))
	addGC(&s, run.gc, run.solves)
	lt := probeLayers(ctx, rep, eng, ref, &s)
	mid := run.phases[len(run.phases)/2]
	addServeMetrics(ctx, rep, &s, rig, run, mid, ref)
	addShares(&s, lt, mid)
	rep.PerLayer = s
	return nil
}

// addGC adds the garbage collector's work over a timed phase.
func addGC(s *metricSet, gc [2]gcSnapshot, solves int) {
	s.add("gc.cycles_per_solve", "count", ratio(float64(gc[1].cycles-gc[0].cycles), float64(solves)))
	s.add("gc.pause_ms_sum", "ms", float64(gc[1].pauseNs-gc[0].pauseNs)/1e6)
}

// addServeMetrics adds the serve layer's metrics for one open-loop phase,
// plus direct Server.Solve timings (no HTTP) on the working set.
func addServeMetrics(ctx context.Context, rep *report, s *metricSet, rig *serveRig, run *serveRun, ps *phaseStats, ws []*instance) {
	var direct []float64
	for i, in := range ws[:min(probeGraphs, len(ws))] {
		for _, p := range problems {
			rep.Attempted++
			t0 := time.Now()
			sr, err := rig.srv.Solve(ctx, &serve.SolveRequest{Problem: p.String(), Fingerprint: rig.fps[i]})
			direct = append(direct, msSince(t0))
			if err == nil {
				var d uint64
				d, err = verifyServed(in.g, p, sr)
				if err == nil && d != in.digest[p] {
					err = errDigest
				}
			}
			if err != nil {
				rep.fail("direct Server.Solve graph %d %s: %v", i, p, err)
			}
		}
	}
	s.add("serve.solve_ms_p50", "ms", median(ps.server))
	s.add("serve.overhead_ms_p50", "ms", median(ps.overhead))
	s.add("serve.overhead_ms_p90", "ms", quantile(ps.overhead, 0.9))
	s.add("serve.direct_ms_p50", "ms", median(direct))
	s.add("serve.inline_ms_p50", "ms", median(ps.inline))
	s.add("serve.byfp_ms_p50", "ms", median(ps.byfp))
	s.add("serve.resp_kb_p50", "KiB", median(ps.respKB))
	s.add("serve.rejected", "count", float64(run.after.Rejected-run.before.Rejected))
	s.add("serve.expired", "count", float64(run.after.Expired-run.before.Expired))
	s.add("serve.prepared_graphs", "count", float64(run.after.PreparedGraphs))
	s.add("serve.gen_late_ms_p99", "ms", quantile(ps.late, 0.99))
}

// addShares adds each layer's estimated share of solve time. The
// sparsify, kernel, coloring and square shares come from probes of the
// work the solve path is known to do on the input graph (the first round's
// sparsification, or the Section 5 colouring), so the sparsify and kernel
// shares are lower bounds; a layer the path never enters has share 0.
// share.kernel is part of share.sparsify, and share.graph_square part of
// share.coloring.
func addShares(s *metricSet, lt layerTimes, ps *phaseStats) {
	s.add("share.kernel", "ratio", ratio(lt.kwiseMS, lt.solveMS))
	s.add("share.sparsify", "ratio", ratio(lt.sparsifyMS, lt.solveMS))
	s.add("share.coloring", "ratio", ratio(lt.coloringMS, lt.solveMS))
	s.add("share.graph_square", "ratio", ratio(lt.squareMS, lt.solveMS))
	s.add("share.serve_overhead", "ratio", ratio(median(ps.overhead), median(ps.http)))
}

// probeLayers times direct calls into each layer on the working set and
// adds the repro, sparsify, kernel, graph, coloring, parallel and simcost
// metrics.
func probeLayers(ctx context.Context, rep *report, eng *repro.Engine, insts []*instance, s *metricSet) layerTimes {
	tr := rep.spans
	p := core.DefaultParams()
	var lt layerTimes

	// repro: Prepare on a fresh engine; allocations of warm solves.
	var prepUS []float64
	for _, in := range insts {
		for r := 0; r < 3; r++ {
			e := repro.NewEngine(nil)
			t := tr.probe("engine.prepare", func() {
				if _, err := e.Prepare(in.g); err != nil {
					rep.fail("prepare: %v", err)
				}
			})
			prepUS = append(prepUS, t*1000/(float64(in.g.M())/1000))
		}
	}
	s.add("engine.prepare_us_per_kedge", "us", median(prepUS))

	type solved struct {
		in  *instance
		p   problem
		out output
		err error
	}
	outs := make([]solved, 0, 2*len(insts))
	solveMS := make([][2]float64, len(insts))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, in := range insts {
		for _, pr := range problems {
			t0 := time.Now()
			o, err := call(ctx, eng, in.g, pr)
			solveMS[i][pr] = msSince(t0)
			outs = append(outs, solved{in, pr, o, err})
		}
	}
	runtime.ReadMemStats(&m1)
	for _, o := range outs {
		rep.Attempted++
		err := o.err
		if err == nil {
			r, verr := o.out.verify(o.in.g, o.p)
			err = against(r, verr, o.in.digest[o.p])
		}
		if err != nil {
			rep.fail("allocation probe %s: %v", o.p, err)
		}
	}
	heavy := insts[:min(probeGraphs, len(insts))]
	for i := range heavy {
		lt.solveMS += solveMS[i][matching] + solveMS[i][mis]
	}
	count := float64(len(outs))
	s.add("engine.allocs_per_solve", "count", float64(m1.Mallocs-m0.Mallocs)/count)
	s.add("engine.alloc_kb_per_solve", "KiB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/count)

	// sparsify: the first round's sparsification of each input graph.
	sc := scratch.New()
	sparsify.SparsifyEdgesIn(sc, insts[0].g, p, nil) // warm the scratch arenas
	sc.Reset()
	var edgesMS, nodesMS, stages, stageSeeds, itemSeeds, stageMS, estar, fallbacks []float64
	for _, in := range heavy {
		var er *sparsify.EdgeResult
		te := tr.probe("sparsify.edges", func() { er = sparsify.SparsifyEdgesIn(sc, in.g, p, nil) })
		ew, es := stageWork(er.Stages)
		estar = append(estar, float64(er.EStar.MaxDegree())/float64(sparsify.MaxDegreeBound(in.g.N(), p.InvDelta)))
		fb := b2f(er.UsedFallback)
		sc.Reset()
		var nr *sparsify.NodeResult
		tn := tr.probe("sparsify.nodes", func() { nr = sparsify.SparsifyNodesIn(sc, in.g, p, nil) })
		nw, ns := stageWork(nr.Stages)
		fb += b2f(nr.UsedFallback)
		sc.Reset()

		edgesMS = append(edgesMS, te)
		nodesMS = append(nodesMS, tn)
		stages = append(stages, float64(len(er.Stages)+len(nr.Stages)))
		stageSeeds = append(stageSeeds, es+ns)
		itemSeeds = append(itemSeeds, ew+nw)
		stageMS = append(stageMS, te+tn)
		fallbacks = append(fallbacks, fb)
		if in.strat[matching] == repro.StrategySparsify {
			lt.sparsifyMS += te
		}
		if in.strat[mis] == repro.StrategySparsify {
			lt.sparsifyMS += tn
		}
	}
	s.add("sparsify.edges_ms", "ms", mean(edgesMS))
	s.add("sparsify.nodes_ms", "ms", mean(nodesMS))
	s.add("sparsify.stages", "count", mean(stages))
	s.add("sparsify.stage_seeds", "count", mean(stageSeeds))
	s.add("sparsify.ns_per_item_seed", "ns", ratio(sum(stageMS)*1e6, sum(itemSeeds)))
	s.add("sparsify.estar_deg_ratio", "ratio", maxOf(estar))
	s.add("sparsify.fallbacks", "count", sum(fallbacks))

	// hashfam / intmath: per-seed key evaluation over the first graph's
	// edge keys.
	g0 := insts[0].g
	keys := make([]uint64, 0, g0.M())
	for _, e := range g0.Edges() {
		keys = append(keys, e.Key(g0.N()))
	}
	kwise := kernelNsPerKey(tr, "kernel.kwise", core.KWiseFamily(g0.N(), p.KWise), keys)
	s.add("kernel.kwise_ns_per_key", "ns", kwise)
	s.add("kernel.pairwise_ns_per_key", "ns", kernelNsPerKey(tr, "kernel.pairwise", core.PairwiseFamily(g0.N()), keys))
	// Computed, not measured: one 8-byte key read and one 8-byte value
	// written per key and seed.
	s.add("kernel.bytes_per_key", "B", 16)
	for i, in := range heavy {
		if in.strat[matching] == repro.StrategySparsify || in.strat[mis] == repro.StrategySparsify {
			// Each stage search evaluates its items once per seed tried.
			lt.kwiseMS += kwise * itemSeeds[i] / 1e6
		}
	}

	// graph and coloring.
	var buildNs, fpNs, rebuildNs, squareMS, lineMS, colorMS, colors []float64
	for _, in := range heavy {
		g := in.g
		m := float64(g.M())
		edges := g.Edges()
		remove := make([]bool, g.N())
		for v := range remove {
			remove[v] = v%8 == 0
		}
		dst := &graph.CSR{}
		g.WithoutNodesInto(remove, p.Workers(), dst) // size dst
		var fp repro.Fingerprint
		for r := 0; r < 3; r++ {
			buildNs = append(buildNs, tr.probe("graph.build", func() { repro.FromEdges(g.N(), edges) })*1e6/m)
			fpNs = append(fpNs, tr.probe("graph.fingerprint", func() { fp = repro.FingerprintOf(g) })*1e6/m)
			rebuildNs = append(rebuildNs, tr.probe("graph.rebuild", func() { g.WithoutNodesInto(remove, p.Workers(), dst) })*1e6/m)
		}
		_ = fp
		var lg *repro.Graph
		tsq := tr.probe("graph.square", func() { g.Square() })
		tlg := tr.probe("graph.linegraph", func() { lg, _ = g.LineGraph() })
		var col *coloring.Result
		tcol := tr.probe("coloring.linial_g2", func() { col = coloring.LinialG2(g, nil) })
		squareMS = append(squareMS, tsq)
		lineMS = append(lineMS, tlg)
		colorMS = append(colorMS, tcol)
		colors = append(colors, float64(col.NumColors))
		if in.strat[mis] == repro.StrategyLowDegree {
			lt.coloringMS += tcol
			lt.squareMS += tsq
		}
		if in.strat[matching] == repro.StrategyLowDegree {
			// The Section 5 matching colours the square of the line graph.
			lt.squareMS += tlg + tr.probe("graph.square", func() { lg.Square() })
			lt.coloringMS += tlg + tr.probe("coloring.linial_g2", func() { coloring.LinialG2(lg, nil) })
		}
	}
	s.add("graph.build_ns_per_edge", "ns", median(buildNs))
	s.add("graph.fingerprint_ns_per_edge", "ns", median(fpNs))
	s.add("graph.rebuild_ns_per_edge", "ns", median(rebuildNs))
	s.add("graph.square_ms", "ms", mean(squareMS))
	s.add("graph.linegraph_ms", "ms", mean(lineMS))
	s.add("coloring.linial_g2_ms", "ms", mean(colorMS))
	s.add("coloring.colors", "count", mean(colors))

	// parallel: Parallelism 1 against the default on the first graph.
	var t1, tn [2][]float64
	for r := 0; r < 2; r++ {
		for _, pr := range problems {
			for _, par := range []int{0, 1} {
				rep.Attempted++
				t0 := time.Now()
				res, err := solve(ctx, eng, g0, pr, repro.WithParallelism(par))
				el := msSince(t0)
				if err := against(res, err, insts[0].digest[pr]); err != nil {
					rep.fail("parallelism %d %s: %v", par, pr, err)
				}
				if par == 1 {
					t1[pr] = append(t1[pr], el)
				} else {
					tn[pr] = append(tn[pr], el)
				}
			}
		}
	}
	s.add("parallel.speedup", "ratio", ratio(median(t1[matching])+median(t1[mis]), median(tn[matching])+median(tn[mis])))

	// simcost: the reference solves' cost reports.
	var peak, violations []float64
	for _, in := range insts {
		for _, pr := range problems {
			if c := in.costs[pr]; c != nil {
				peak = append(peak, ratio(float64(c.PeakMachineWords), float64(c.SpacePerMachine)))
				violations = append(violations, float64(len(c.Violations)))
			}
		}
	}
	s.add("simcost.peak_words_ratio", "ratio", maxOf(peak))
	s.add("simcost.violations", "count", sum(violations))
	return lt
}

// stageWork sums a stage chain's item·seed evaluations and seeds tried.
func stageWork(st []sparsify.StageReport) (itemSeeds, seeds float64) {
	for _, r := range st {
		itemSeeds += float64(r.ItemsBefore) * float64(r.SeedsTried)
		seeds += float64(r.SeedsTried)
	}
	return itemSeeds, seeds
}

// kernelNsPerKey times Evaluator.EvalKeys over keys under kernelSeeds
// seeds, three times, and returns the median ns per key and seed.
func kernelNsPerKey(tr *tracer, name string, fam hashfam.Family, keys []uint64) float64 {
	ev := hashfam.NewEvaluator(fam)
	seed := make([]uint64, fam.SeedLen())
	out := make([]uint64, len(keys))
	var per []float64
	for r := 0; r < 3; r++ {
		t := tr.probe(name, func() {
			for i := 0; i < kernelSeeds; i++ {
				for j := range seed {
					seed[j] = splitmix64(uint64((r*kernelSeeds+i)*len(seed)+j)) % fam.P()
				}
				out = ev.EvalKeys(seed, keys, out)
			}
		})
		per = append(per, t*1e6/float64(kernelSeeds*len(keys)))
	}
	return median(per)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}
