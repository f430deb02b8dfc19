package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/serve"
)

// serveEngines is the serve workloads' engine pool size.
const serveEngines = 2

// serveRig is a serve.Server behind its HTTP handler on a loopback
// listener, with the working set uploaded.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string
	client *http.Client
	fps    []string // working-set fingerprints
}

// startServe starts the server, uploads the working set over HTTP and
// warms it with one verified served solve per (graph, problem). ref holds
// the direct Engine digests the warm-up results must equal.
func startServe(ctx context.Context, rep *report, insts, ref []*instance, cfg runConfig) (*serveRig, error) {
	srv := serve.New(serve.Config{Engines: serveEngines})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	rig := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.clients,
			MaxConnsPerHost:     cfg.clients,
		}},
	}
	go func() {
		defer close(rig.served)
		_ = rig.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	for i, in := range insts {
		var up serve.UploadResponse
		if err := rig.postJSON(ctx, "/v1/graphs", uploadOf(in.g), &up); err != nil {
			rig.close()
			return nil, fmt.Errorf("upload graph %d: %w", i, err)
		}
		rig.fps = append(rig.fps, up.Fingerprint)
	}
	for i, in := range insts {
		for _, p := range problems {
			rep.Attempted++
			var sr serve.SolveResponse
			err := rig.postJSON(ctx, "/v1/solve", &serve.SolveRequest{Problem: p.String(), Fingerprint: rig.fps[i]}, &sr)
			if err == nil {
				var d uint64
				d, err = verifyServed(in.g, p, &sr)
				if err == nil && d != ref[i].digest[p] {
					err = errDigest
				}
			}
			if err != nil {
				rep.fail("warm-up %s on graph %d: %v", p, i, err)
			}
		}
	}
	return rig, nil
}

// close stops the HTTP server (waiting for its handlers), then the solver
// pool.
func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		_ = r.hs.Close()
	}
	<-r.served
	r.client.CloseIdleConnections()
	r.srv.Close()
}

func uploadOf(g *repro.Graph) *serve.GraphUpload {
	edges := g.Edges()
	u := &serve.GraphUpload{N: g.N(), Edges: make([][2]int32, len(edges))}
	for i, e := range edges {
		u.Edges[i] = [2]int32{e.U, e.V}
	}
	return u
}

func (r *serveRig) postJSON(ctx context.Context, path string, body, into any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

func (r *serveRig) status(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// verifyServed checks a served result with the check package and digests
// it exactly as a direct Engine result.
func verifyServed(g *repro.Graph, p problem, sr *serve.SolveResponse) (uint64, error) {
	if sr.Problem != p.String() {
		return 0, fmt.Errorf("response is for problem %q", sr.Problem)
	}
	if p == matching {
		edges := make([]repro.Edge, len(sr.Edges))
		for i, e := range sr.Edges {
			edges[i] = repro.Edge{U: e[0], V: e[1]}
		}
		if err := checkMatching(g, edges); err != nil {
			return 0, err
		}
		return digestEdges(edges), nil
	}
	nodes := make([]repro.NodeID, len(sr.Nodes))
	copy(nodes, sr.Nodes)
	if err := checkMIS(g, nodes); err != nil {
		return 0, err
	}
	return digestNodes(nodes), nil
}

// request is one planned open-loop request.
type request struct {
	due    time.Duration // from the start of the timed phase
	phase  int
	p      problem
	stream bool
	ws     int       // working-set index, -1 for a fresh inline graph
	inst   *instance // the graph the reply is verified on
	body   []byte
}

// plan lays out the open-loop schedule: phase i sends at rates[i] for
// durs[i], evenly spaced. Request k is matching when k is even, streamed
// when k%4 >= 2, and carries a fresh inline graph when k%5 == 4 (20%,
// spread evenly over the four problem/stream kinds); the others solve by
// fingerprint, each run of four on the next of the ws working-set graphs.
func plan(rates []float64, durs []time.Duration, ws int) []request {
	var out []request
	var offset time.Duration
	k := 0
	for ph, rate := range rates {
		gap := time.Duration(float64(time.Second) / rate)
		for t := time.Duration(0); t < durs[ph]; t += gap {
			out = append(out, request{
				due:    offset + t,
				phase:  ph,
				p:      problems[k%2],
				stream: k%4 >= 2,
				ws:     (k / 4) % ws,
			})
			if k%5 == 4 {
				out[len(out)-1].ws = -1
			}
			k++
		}
		offset += durs[ph]
	}
	return out
}

// reply is what one request observed, times from the start of the timed
// phase.
type reply struct {
	sent, ttfr, recv, done time.Duration
	serverMS               float64
	bytes                  int
	digest                 uint64
	err                    error
}

// do sends one request and verifies its reply. Working-set replies must
// equal the direct Engine digest; fresh inline replies are compared after
// the phase.
func (r *serveRig) do(ctx context.Context, start time.Time, q *request) (rp reply) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	rp.sent = time.Since(start)
	defer func() { rp.done = time.Since(start) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/solve", bytes.NewReader(q.body))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		rp.err = err
		return rp
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		rp.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return rp
	}
	var sr *serve.SolveResponse
	if q.stream {
		sr, err = readStream(resp.Body, start, &rp)
	} else {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		rp.bytes = len(data)
		if err == nil {
			sr = new(serve.SolveResponse)
			err = json.Unmarshal(data, sr)
		}
	}
	rp.recv = time.Since(start)
	if err != nil {
		rp.err = err
		return rp
	}
	rp.serverMS = sr.DurationMS
	rp.digest, rp.err = verifyServed(q.inst.g, q.p, sr)
	if rp.err == nil && q.ws >= 0 && rp.digest != q.inst.digest[q.p] {
		rp.err = errDigest
	}
	return rp
}

// readStream consumes an NDJSON solve stream, stamping the first round
// line.
func readStream(body io.Reader, start time.Time, rp *reply) (*serve.SolveResponse, error) {
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadBytes('\n')
		rp.bytes += len(line)
		if len(bytes.TrimSpace(line)) > 0 {
			var ev serve.StreamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return nil, fmt.Errorf("bad stream line: %w", jerr)
			}
			switch ev.Type {
			case "round":
				if rp.ttfr == 0 {
					rp.ttfr = time.Since(start)
				}
			case "result":
				if ev.Result == nil {
					return nil, errors.New("result line without a result")
				}
				return ev.Result, nil
			case "error":
				return nil, fmt.Errorf("stream error %d: %s", ev.Status, ev.Error)
			}
		}
		if err == io.EOF {
			return nil, errors.New("stream ended without a result line")
		}
		if err != nil {
			return nil, err
		}
	}
}

// runPlan is the open loop: a generator hands each request to one of
// clients caller goroutines when it falls due. When every caller is busy
// the generator blocks and later requests go out late; their latency still
// counts from when they were due.
func (r *serveRig) runPlan(ctx context.Context, reqs []request, clients int) ([]reply, time.Time, time.Duration) {
	replies := make([]reply, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for k := range work {
				replies[k] = r.do(ctx, start, &reqs[k])
			}
		}()
	}
	for k := range reqs {
		if d := time.Until(start.Add(reqs[k].due)); d > 0 {
			time.Sleep(d)
		}
		work <- k
	}
	close(work)
	wg.Wait()
	return replies, start, time.Since(start)
}

// phaseStats is one ladder rate's measurements. Latencies run from due
// time to a verified result.
type phaseStats struct {
	rate     float64
	lat      [2][]float64 // ok requests, ms
	all      []float64    // every request, failed ones as +Inf
	ttfr     []float64    // streamed ok requests: due → first round line
	overhead []float64    // (recv − sent) − server duration_ms
	http     []float64    // recv − sent
	server   []float64    // server duration_ms
	respKB   []float64
	inline   []float64
	byfp     []float64
	late     []float64 // sent − due
	failed   int
	growing  bool // the generator fell further behind over the phase
}

// p90OK reports whether the phase met the latency limit with no failures
// and no growing backlog.
func (ps *phaseStats) p90OK() bool {
	return ps.failed == 0 && !ps.growing && quantile(ps.all, 0.9) <= ms(latencyLimit)
}

// serveRun is one open-loop phase with its post-phase checks done.
type serveRun struct {
	phases        []*phaseStats
	edges         float64
	wall          time.Duration
	before, after serve.Stats
	gc            [2]gcSnapshot
	solves        int // verified replies
}

// runOpenLoop plans the ladder, generates and encodes the fresh inline
// graphs (untimed), runs the schedule, and checks every reply — fresh
// inline replies against a direct solve on eng.
func runOpenLoop(ctx context.Context, rep *report, rig *serveRig, w workload, cfg runConfig, ws []*instance, eng *repro.Engine, rates []float64, durs []time.Duration) (*serveRun, error) {
	reqs := plan(rates, durs, len(ws))
	inline := 0
	for _, q := range reqs {
		if q.ws < 0 {
			inline++
		}
	}
	fresh, err := generate(w, cfg.seed, freshBase, inline)
	if err != nil {
		return nil, err
	}
	f := 0
	for k := range reqs {
		q := &reqs[k]
		sr := serve.SolveRequest{Problem: q.p.String(), Stream: q.stream, TimeoutMS: requestTimeout.Milliseconds()}
		if q.ws < 0 {
			q.inst = fresh[f]
			f++
			sr.Graph = uploadOf(q.inst.g)
		} else {
			q.inst = ws[q.ws]
			sr.Fingerprint = rig.fps[q.ws]
		}
		if q.body, err = json.Marshal(&sr); err != nil {
			return nil, err
		}
	}
	run := &serveRun{}
	if run.before, err = rig.status(ctx); err != nil {
		return nil, err
	}
	runtime.GC()
	run.gc[0] = readGC()
	replies, start, wall := rig.runPlan(ctx, reqs, cfg.clients)
	run.gc[1] = readGC()
	run.wall = wall
	if run.after, err = rig.status(ctx); err != nil {
		return nil, err
	}

	// Fresh inline replies: the served digest must equal a direct solve's.
	for k := range reqs {
		q, rp := &reqs[k], &replies[k]
		if q.ws >= 0 || rp.err != nil {
			continue
		}
		r, err := solve(ctx, eng, q.inst.g, q.p)
		switch {
		case err != nil:
			rp.err = fmt.Errorf("direct reference solve: %w", err)
		case r.digest != rp.digest:
			rp.err = errDigest
		}
	}

	for _, rate := range rates {
		run.phases = append(run.phases, &phaseStats{rate: rate})
	}
	for k := range reqs {
		q, rp := &reqs[k], &replies[k]
		ps := run.phases[q.phase]
		rep.Attempted++
		dueMS := ms(q.due)
		ps.late = append(ps.late, ms(rp.sent)-dueMS)
		if rp.err != nil {
			ps.failed++
			ps.all = append(ps.all, math.Inf(1))
			rep.fail("request %d (%s, stream %v, inline %v): %v", k, q.p, q.stream, q.ws < 0, rp.err)
			continue
		}
		lat := ms(rp.done) - dueMS
		run.solves++
		run.edges += float64(q.inst.g.M())
		if rep.spans != nil {
			traceReply(rep.spans, start, q, rp)
		}
		ps.all = append(ps.all, lat)
		ps.lat[q.p] = append(ps.lat[q.p], lat)
		if q.stream && rp.ttfr > 0 {
			ps.ttfr = append(ps.ttfr, ms(rp.ttfr)-dueMS)
		}
		h := ms(rp.recv - rp.sent)
		ps.http = append(ps.http, h)
		ps.server = append(ps.server, rp.serverMS)
		ps.overhead = append(ps.overhead, h-rp.serverMS)
		ps.respKB = append(ps.respKB, float64(rp.bytes)/1024)
		if q.ws < 0 {
			ps.inline = append(ps.inline, lat)
		} else {
			ps.byfp = append(ps.byfp, lat)
		}
	}
	for _, ps := range run.phases {
		ps.growing = growing(ps.late, ps.rate)
	}
	return run, nil
}

// traceReply records a served request's client-side spans: request (due →
// verified) over wait (due → sent), http (sent → received) and check; http
// holds serve.solve, the server's reported solve time placed at the end of
// the exchange.
func traceReply(tr *tracer, start time.Time, q *request, rp *reply) {
	at := func(d time.Duration) time.Time { return start.Add(d) }
	req := tr.request()
	root := tr.add(req, 0, "request."+q.p.String(), at(q.due), at(rp.done))
	tr.add(req, root, "client.wait", at(q.due), at(rp.sent))
	h := tr.add(req, root, "http", at(rp.sent), at(rp.recv))
	solve := time.Duration(rp.serverMS * float64(time.Millisecond))
	tr.add(req, h, "serve.solve", at(rp.recv-solve), at(rp.recv))
	tr.add(req, root, "check", at(rp.recv), at(rp.done))
}

// growing reports a backlog that grew over a phase: the generator's median
// lateness over the last quarter of the phase exceeds that over the first
// quarter by more than one inter-arrival gap.
func growing(late []float64, rate float64) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	return median(late[len(late)-q:])-median(late[:q]) > 1000/rate
}

// sloRPS is the highest ladder rate whose phase met the latency limit; 0
// when none did.
func sloRPS(phases []*phaseStats) float64 {
	best := 0.0
	for _, ps := range phases {
		if ps.p90OK() && ps.rate > best {
			best = ps.rate
		}
	}
	return best
}

// phaseDurations splits the timed phase over the ladder by share.
func phaseDurations(total time.Duration, shares []float64) []time.Duration {
	out := make([]time.Duration, len(shares))
	for i, s := range shares {
		out[i] = time.Duration(float64(total) * s)
	}
	return out
}

func runServeWorkload(ctx context.Context, w workload, cfg runConfig, rep *report) error {
	// The direct Engine's results are the reference every served result
	// must equal; computing them is not part of set-up.
	eng, ref, err := setupEngine(ctx, w, cfg.seed)
	if err != nil {
		return err
	}
	rep.Attempted += 2 * len(ref)

	var setups []float64
	var rig *serveRig
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		insts, err := generate(w, cfg.seed, 0, w.graphs)
		if err != nil {
			return err
		}
		r, err := startServe(ctx, rep, insts, ref, cfg)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rig != nil {
			rig.close()
		}
		rig = r
	}
	defer rig.close()

	run, err := runOpenLoop(ctx, rep, rig, w, cfg, ref, eng, w.rates, phaseDurations(cfg.timed, w.shares))
	if err != nil {
		return err
	}
	checkSerial(ctx, rep, eng, ref)

	mid := run.phases[len(run.phases)/2]
	var e2e metricSet
	e2e.add("setup_s", "s", median(setups))
	addLatencies(&e2e, mid.lat)
	e2e.add("edges_per_s", "edges/s", run.edges/run.wall.Seconds())
	e2e.add("mpc_rounds", "count", mpcRounds(ref))
	e2e.add("peak_rss_mb", "MiB", peakRSSMB())
	e2e.add("ttfr_ms_p50", "ms", median(mid.ttfr))
	e2e.add("slo_rps", "req/s", sloRPS(run.phases))
	e2e.add("fail_frac", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	e2e.add("mm_samples", "count", float64(len(mid.lat[matching])))
	e2e.add("mis_samples", "count", float64(len(mid.lat[mis])))
	for _, ps := range run.phases {
		e2e.add(fmt.Sprintf("rate%g.p90_ms", ps.rate), "ms", quantile(ps.all, 0.9))
		e2e.add(fmt.Sprintf("rate%g.meets_limit", ps.rate), "bool", b2f(ps.p90OK()))
	}
	rep.EndToEnd = e2e

	if cfg.traced {
		return traceServeWorkload(ctx, w, cfg, rep, eng, ref, rig, run)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
