package main

import (
	"context"
	"math"
	"sort"
	"time"

	"repro"
)

// span is one timed call recorded by the benchmark's own code around a
// call into a layer. Spans of one request share Req; Parent 0 marks a
// root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run writes them
// out. It is used from one goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request returns a fresh request id.
func (t *tracer) request() int32 {
	t.reqs++
	return t.reqs
}

// add records a span and returns its id.
func (t *tracer) add(req, parent int32, name string, start, end time.Time) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// probe times fn as a root span of its own request and returns its
// duration in milliseconds.
func (t *tracer) probe(name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.add(t.request(), 0, name, t0, t1)
	return ms(t1.Sub(t0))
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover (children of one parent never overlap here).
func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			agg[s.Name] = st
		}
		st.MS += float64(s.End-s.Start-child[s.ID]) / float64(time.Millisecond)
		st.Count++
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// stampObserver is the benchmark's Observer: it stamps the receive time of
// every round event.
type stampObserver struct{ stamps []stamp }

type stamp struct {
	ev repro.RoundEvent
	at time.Time
}

func (o *stampObserver) OnRound(ev repro.RoundEvent) {
	o.stamps = append(o.stamps, stamp{ev: ev, at: time.Now()})
}

// solveRecord is one traced solve: the Engine call's wall time split into
// round spans (each from the previous event, or the call, to its event)
// and the tail from the last event to the call's return.
type solveRecord struct {
	p      problem
	strat  repro.Strategy
	nodes  int // node count of the graph the round loop iterates on
	wall   time.Duration
	tail   time.Duration
	rounds []roundRecord
	// gap is |Σ round spans + tail − wall| / wall.
	gap float64
}

type roundRecord struct {
	dur time.Duration
	ev  repro.RoundEvent
}

// tracedSolve is solve with the stamping observer attached and spans
// recorded: solve → engine → round…, tail; solve → check.
func tracedSolve(ctx context.Context, tr *tracer, eng *repro.Engine, g *repro.Graph, p problem) (result, solveRecord, error) {
	obs := &stampObserver{}
	t0 := time.Now()
	out, err := call(ctx, eng, g, p, repro.WithObserver(obs))
	t1 := time.Now()
	if err != nil {
		return result{}, solveRecord{}, err
	}
	r, err := out.verify(g, p)
	t2 := time.Now()

	req := tr.request()
	root := tr.add(req, 0, "solve."+p.String(), t0, t2)
	engine := tr.add(req, root, "engine", t0, t1)
	rec := solveRecord{p: p, strat: out.strat, nodes: g.N(), wall: t1.Sub(t0)}
	if p == matching && out.strat == repro.StrategyLowDegree {
		rec.nodes = g.M() // the Section 5 matching iterates on the line graph
	}
	name := "round." + string(out.strat) + "." + p.String()
	prev := t0
	var sum time.Duration
	for _, s := range obs.stamps {
		tr.add(req, engine, name, prev, s.at)
		rec.rounds = append(rec.rounds, roundRecord{dur: s.at.Sub(prev), ev: s.ev})
		sum += s.at.Sub(prev)
		prev = s.at
	}
	tr.add(req, engine, "engine.tail", prev, t1)
	rec.tail = t1.Sub(prev)
	sum += rec.tail
	rec.gap = math.Abs(float64(sum-rec.wall)) / float64(rec.wall)
	tr.add(req, root, "check", t1, t2)
	return r, rec, err
}

// addRoundMetrics adds the repro, round-loop and condexp metrics read from
// the traced solves.
func addRoundMetrics(s *metricSet, recs []solveRecord) {
	var tails, roundMS []float64
	var sparsifySolves, rounds, dense, sparse, selected, live float64
	var seeds, batches, searched, found, edgeSeeds, roundNs, gapMax float64
	for _, rec := range recs {
		tails = append(tails, ms(rec.tail))
		if rec.strat == repro.StrategySparsify {
			sparsifySolves++
		}
		gapMax = math.Max(gapMax, rec.gap)
		for _, r := range rec.rounds {
			ev := r.ev
			rounds++
			roundMS = append(roundMS, ms(r.dur))
			if 4*ev.LiveNodes >= rec.nodes {
				dense += ms(r.dur)
			} else {
				sparse += ms(r.dur)
			}
			selected += float64(ev.Selected)
			if rec.p == matching && rec.strat == repro.StrategySparsify {
				live += float64(ev.LiveEdges)
			} else {
				live += float64(ev.LiveNodes)
			}
			seeds += float64(ev.SeedsTried)
			batches += float64(len(ev.Batches))
			if ev.SeedsTried > 0 {
				searched++
				if ev.SeedFound {
					found++
				}
			}
			edgeSeeds += float64(ev.SeedsTried) * float64(ev.LiveEdges)
			roundNs += float64(r.dur)
		}
	}
	n := float64(len(recs))
	s.add("engine.tail_ms_p50", "ms", median(tails))
	s.add("engine.sparsify_frac", "ratio", ratio(sparsifySolves, n))
	s.add("round.per_solve", "count", ratio(rounds, n))
	s.add("round.ms_p50", "ms", median(roundMS))
	s.add("round.dense_ms_sum", "ms", ratio(dense, n))
	s.add("round.sparse_ms_sum", "ms", ratio(sparse, n))
	s.add("round.selected_frac", "ratio", ratio(selected, live))
	s.add("condexp.seeds_per_solve", "count", ratio(seeds, n))
	s.add("condexp.batches_per_solve", "count", ratio(batches, n))
	s.add("condexp.found_frac", "ratio", ratio(found, searched))
	s.add("condexp.ns_per_edge_seed", "ns", ratio(roundNs, edgeSeeds))
	s.add("trace.reconcile_gap_max", "ratio", gapMax)
}
