package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/server"
	"lbcast/internal/sim"
)

// serve-mixed parameters.
const (
	// serveRate is the open-loop arrival rate in requests per second. It
	// puts the expensive requests (3%) about 208 ms apart, twice the run
	// time of a full-budget equivocate world, and keeps a 2-vCPU host about
	// a quarter busy, so the open loop measures latency, not a growing
	// backlog.
	serveRate = 160
	// servePiggyback is how long after a benign arrival each expensive
	// request is sent: well inside the daemon's 2 ms linger, so that it
	// joins the benign request's group.
	servePiggyback = 500 * time.Microsecond
	// serveMaxBatch is the daemon's max batch; the closed-loop phase keeps
	// exactly this many requests in flight.
	serveMaxBatch = 64
	// serveClosedShare is the share of the measured time given to the
	// closed-loop throughput phase; the open loop gets the rest.
	serveClosedShare = 0.3
	// serveClients is the number of client IDs the traffic comes from.
	serveClients = 8
	// Lateness limits of the open-loop generator: a run whose generator
	// fell further behind its schedule is invalid. The generator shares the
	// processors with the daemon, so it waits for a scheduler preemption
	// (a 10 ms quantum) whenever groups hold every processor; its p99
	// lateness is 4-7 ms on a 2-vCPU host at serveRate.
	maxLateP99MS = 50.0
	maxLateMaxMS = 200.0
)

// Classes of the serve-mixed mix.
const (
	serveBenign    = iota // figure1b, f=2, benign: packable
	serveFig1a            // figure1a, f=1, one tamper or forge fault: second pack key, delta path
	serveExpensive        // figure1b, f=2, one equivocate fault: shares the benign pack key
)

var serveClassNames = []string{"figure1b-benign", "figure1a-fault", "figure1b-fault"}

// servePool is the composition of the request pool and of every deck of
// traffic: 85% benign, 12% figure1a with a fault, 3% expensive. Most
// equivocate worlds run figure1b's full round budget (about 100 ms of one
// core), so the p99 lands inside the expensive class.
var servePool = []struct {
	class    int
	strategy string
	count    int
}{
	{serveBenign, "", 850},
	{serveFig1a, "tamper", 60},
	{serveFig1a, "forge", 60},
	{serveExpensive, "equivocate", 30},
}

// serveDeck is the size of one deal of the traffic; every pool share is a
// whole number of requests per deck.
const serveDeck = 100

// serveOrderLen is the length of the traffic order; the closed loop wraps
// around it if it gets further.
const serveOrderLen = 20000

// servePassOps is the length of the fixed pass: two decks of traffic, sent
// one request at a time so that packing, and with it every count, is
// deterministic.
const servePassOps = 200

// serveReq is one distinct request of the pool.
type serveReq struct {
	class  int
	client string
	req    server.DecideRequest
	body   []byte
	want   server.OutcomeJSON
}

// serveMixed drives the lbcastd HTTP handler in-process, with no sockets.
type serveMixed struct {
	seed  int64
	srv   *server.Server
	h     http.Handler
	pool  []serveReq
	order []int // traffic order: indices into pool, cycle after cycle
	// The traffic order split by cost: cheap holds its benign and figure1a
	// requests, costly its expensive ones, each in order.
	cheap, costly []int
}

func newServeMixed() workload { return &serveMixed{} }

func (w *serveMixed) setup(seed int64, tr *tracer) error {
	w.seed = seed
	id := tr.begin("loadgen.pool", 0)
	w.makePool(catalogSeed, seed)
	tr.end(id)
	for _, c := range []struct {
		g *graph.Graph
		f int
	}{{gen.Figure1b(), 2}, {gen.Figure1a(), 1}} {
		if err := analyze(c.g, c.f, tr); err != nil {
			return err
		}
	}
	id = tr.begin("server.New", 0)
	w.srv = server.New(server.Config{MaxBatch: serveMaxBatch})
	w.h = w.srv.Handler()
	tr.end(id)
	// Warm-up: one request per graph and fault placement of the pool (the
	// key of the daemon's plans and run pools), so that it compiles every
	// plan and fills its pools before timing. An equivocator's placement is
	// warmed by a tamper fault on the same node: both are value faults, so
	// they share plans and pools, and tamper worlds decide early.
	id = tr.begin("warmup", 0)
	defer tr.end(id)
	seen := make(map[string]bool)
	for i := range w.pool {
		r := &w.pool[i]
		key := r.req.Graph
		for _, f := range r.req.Faults {
			key += fmt.Sprintf("/%d", f.Node)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		if r.class == serveExpensive {
			r = warmTamper(r)
		}
		code, body := w.do(r)
		if code != http.StatusOK {
			return fmt.Errorf("warm-up request %s: status %d: %s", key, code, body)
		}
	}
	return nil
}

// warmTamper returns r with its fault's strategy replaced by tamper.
func warmTamper(r *serveReq) *serveReq {
	t := *r
	t.req.Faults = []server.FaultSpec{{Node: r.req.Faults[0].Node, Strategy: "tamper", Seed: 1}}
	t.body, _ = json.Marshal(t.req)
	return &t
}

// catalogSeed seeds the request pool here and the sweep catalog of the
// Monte Carlo workloads. The pool is the same for every run seed, so that
// every seed offers the same work: the expensive worlds' cost
// is bimodal (an early decision or the full round budget), and a per-seed
// sample of them moved throughput and tail latency by more than the
// benchmark's bounds. The run seed draws the traffic: request order and
// arrival times.
const catalogSeed = 1

// makePool generates the distinct requests from catalog and the traffic
// order from seed.
func (w *serveMixed) makePool(catalog, seed int64) {
	rng := rand.New(rand.NewSource(catalog))
	w.pool = w.pool[:0]
	for _, c := range servePool {
		for k := 0; k < c.count; k++ {
			r := serveReq{class: c.class, client: fmt.Sprintf("client-%d", rng.Intn(serveClients))}
			n, g := figure1bN, "figure1b"
			r.req.F = 2
			if c.class == serveFig1a {
				n, g, r.req.F = 5, "figure1a", 1
			}
			r.req.Graph = g
			r.req.Inputs = make([]int, n)
			for u := range r.req.Inputs {
				r.req.Inputs[u] = rng.Intn(2)
			}
			if c.strategy != "" {
				r.req.Faults = []server.FaultSpec{{Node: rng.Intn(n), Strategy: c.strategy, Seed: rng.Int63()}}
			}
			r.body, _ = json.Marshal(r.req)
			w.pool = append(w.pool, r)
		}
	}
	// The traffic is dealt from shuffled decks of serveDeck requests, each
	// holding every kind in its pool share, so every stretch of traffic
	// carries the same mix; each kind's requests are drawn in a seeded order.
	rng = rand.New(rand.NewSource(seed))
	var deck, kindOf []int
	byKind := make([][]int, len(servePool))
	for i, base := 0, 0; i < len(servePool); i++ {
		byKind[i] = rng.Perm(servePool[i].count)
		for j := range byKind[i] {
			byKind[i][j] += base
		}
		base += servePool[i].count
		for range servePool[i].count * serveDeck / len(w.pool) {
			kindOf = append(kindOf, i)
		}
	}
	next := make([]int, len(servePool))
	w.order = w.order[:0]
	for len(w.order) < serveOrderLen {
		deck = append(deck[:0], kindOf...)
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, k := range deck {
			w.order = append(w.order, byKind[k][next[k]%len(byKind[k])])
			next[k]++
		}
	}
	w.cheap, w.costly = w.cheap[:0], w.costly[:0]
	for _, i := range w.order {
		if w.pool[i].class == serveExpensive {
			w.costly = append(w.costly, i)
		} else {
			w.cheap = append(w.cheap, i)
		}
	}
}

// prepare computes the expected outcome of every pool request with an
// independent eval Session built from the request's fields.
func (w *serveMixed) prepare() error {
	errs := make([]error, len(w.pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(w.pool); i = int(next.Add(1) - 1) {
				errs[i] = w.expect(&w.pool[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// expect runs r as an independent eval Session, built from the request's
// fields on graphs of its own, and stores the outcome the daemon must serve.
func (w *serveMixed) expect(r *serveReq) error {
	g := gen.Figure1b()
	if r.req.Graph == "figure1a" {
		g = gen.Figure1a()
	}
	spec := eval.Spec{G: g, F: r.req.F, Algorithm: eval.Algo1, Inputs: make(map[graph.NodeID]sim.Value)}
	for u, v := range r.req.Inputs {
		spec.Inputs[graph.NodeID(u)] = sim.Value(v)
	}
	if len(r.req.Faults) > 0 {
		spec.Byzantine = make(map[graph.NodeID]sim.Node)
	}
	phaseLen := core.PhaseRounds(g.N())
	for _, f := range r.req.Faults {
		u := graph.NodeID(f.Node)
		switch f.Strategy {
		case "tamper":
			spec.Byzantine[u] = adversary.NewTamper(g, u, phaseLen, f.Seed)
		case "forge":
			spec.Byzantine[u] = adversary.NewForger(g, u, phaseLen, f.Seed)
		case "equivocate":
			spec.Byzantine[u] = &adversary.EquivocatorNode{G: g, Me: u, PhaseLen: phaseLen}
		}
	}
	s, err := eval.NewSession(spec)
	if err != nil {
		return err
	}
	out, err := s.Run(context.Background())
	if err != nil {
		return err
	}
	if !out.OK() {
		return fmt.Errorf("independent session of %s violates consensus: %+v", r.body, out)
	}
	r.want = server.OutcomeJSON{
		Decisions: out.Decisions, Agreement: out.Agreement, Validity: out.Validity,
		Termination: out.Termination, Rounds: out.Rounds, Budget: out.Budget,
	}
	return nil
}

// do sends one request through the handler and returns status and body.
func (w *serveMixed) do(r *serveReq) (int, []byte) {
	hr := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(r.body))
	hr.Header.Set("X-Client-ID", r.client)
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

// reply is one checked response.
type reply struct {
	ok      bool
	refused bool
	problem string
	resp    server.DecideResponse
}

// check decodes a response and compares its outcome with the independent
// session's.
func check(r *serveReq, code int, body []byte) reply {
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return reply{refused: true, problem: fmt.Sprintf("refused with %d", code)}
	case code != http.StatusOK:
		return reply{problem: fmt.Sprintf("status %d: %s", code, bytes.TrimSpace(body))}
	}
	var rep reply
	if err := json.Unmarshal(body, &rep.resp); err != nil {
		rep.problem = fmt.Sprintf("bad response body: %v", err)
		return rep
	}
	if !reflect.DeepEqual(rep.resp.Outcome, r.want) {
		rep.problem = fmt.Sprintf("%s: served outcome %+v differs from the independent session's %+v",
			serveClassNames[r.class], rep.resp.Outcome, r.want)
		return rep
	}
	rep.ok = true
	return rep
}

func (w *serveMixed) at(k int) *serveReq { return &w.pool[w.order[k%len(w.order)]] }

func (w *serveMixed) measure(d time.Duration, m *e2e) error {
	closed := time.Duration(float64(d) * serveClosedShare)
	if err := w.closedLoop(closed, m); err != nil {
		return err
	}
	o := w.openLoop(d-closed, nil, 0)
	m.add(o.tally)
	m.latMS, m.cheapMS, m.lateMS = o.latMS, o.cheapMS, o.lateMS
	return nil
}

// closedLoop keeps serveMaxBatch requests of the cheap classes in flight
// for d and records the decision rate: the daemon's packing throughput.
// The expensive class stays out: nearly every group of a saturated daemon
// would catch one of them and run the full round budget, so the rate would
// hang on how the few expensive requests fell into groups, and it swung by
// a quarter between seeds. The open loop's p99 measures that class.
func (w *serveMixed) closedLoop(d time.Duration, m *e2e) error {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveMaxBatch; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := &w.pool[w.cheap[int(next.Add(1)-1)%len(w.cheap)]]
				t0 := time.Now()
				code, body := w.do(r)
				rep := check(r, code, body)
				mu.Lock()
				m.attempted++
				if rep.ok {
					m.done(t0, 1)
				} else {
					m.fail(1, "closed loop: %s", rep.problem)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return nil
}

// openStats is what one open-loop phase measured.
type openStats struct {
	tally
	refused                int
	latMS, cheapMS, lateMS []float64
	waitMS, serviceMS      []float64
	batchSizes             []float64
}

// arrival is one scheduled open-loop request: its send time from the
// start of the phase and its index in the pool.
type arrival struct {
	due time.Duration
	req int
}

// openSchedule returns the open loop's arrivals for d, in time order. The
// cheap classes arrive as a Poisson stream. The expensive class arrives on
// a fixed period from a seeded offset, as from one steady sender, each
// request servePiggyback after the next benign arrival so that it is
// packed with that benign request: the head-of-line case that
// cheap_latency_p99_ms shows. Each stream takes the traffic order's
// requests of its classes in turn.
//
// Why not Poisson throughout: now and then two expensive requests held both
// workers of a 2-vCPU host at once, and the benign backlog behind such pairs
// grew so steeply with the host's speed that p99 latency tripled between
// runs of the same seed; and an expensive request at a random time was
// packed with half a benign request on average, so the benign class's p99
// sat on the edge of its head-of-line cluster and jumped across it.
func (w *serveMixed) openSchedule(d time.Duration) []arrival {
	share := float64(len(w.costly)) / float64(len(w.order))
	rng := rand.New(rand.NewSource(w.seed))
	var out []arrival
	for at, k := 0.0, 0; ; k++ {
		at += rng.ExpFloat64() / (serveRate * (1 - share))
		if at >= d.Seconds() {
			break
		}
		out = append(out, arrival{time.Duration(at * float64(time.Second)), w.cheap[k%len(w.cheap)]})
	}
	cheap := len(out)
	period := time.Duration(float64(time.Second) / (serveRate * share))
	j := 0 // the first cheap arrival not yet considered
	for at, k := time.Duration(rng.Int63n(int64(period))), 0; at < d; at, k = at+period, k+1 {
		for j < cheap && (out[j].due < at || w.pool[out[j].req].class != serveBenign) {
			j++
		}
		if j == cheap {
			break
		}
		out = append(out, arrival{out[j].due + servePiggyback, w.costly[k%len(w.costly)]})
	}
	slices.SortFunc(out, func(a, b arrival) int { return cmp.Compare(a.due, b.due) })
	return out
}

// openLoop sends the requests of openSchedule(d), each at its scheduled
// time whether or not earlier ones have completed. Latency runs from the
// scheduled send time, so a stalled generator shows as latency.
func (w *serveMixed) openLoop(d time.Duration, tr *tracer, parent int) openStats {
	sched := w.openSchedule(d)
	n := len(sched)
	type sample struct {
		lat, late, sent float64
		rep             reply
	}
	samples := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(sched[i].due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sentAt := time.Now()
		samples[i].late = ms(sentAt.Sub(due))
		wg.Add(1)
		go func(i int, due, sentAt time.Time) {
			defer wg.Done()
			r := &w.pool[sched[i].req]
			id := tr.begin("serve."+serveClassNames[r.class], parent)
			code, body := w.do(r)
			tr.end(id)
			done := time.Now()
			samples[i].lat = ms(done.Sub(due))
			samples[i].sent = ms(done.Sub(sentAt))
			samples[i].rep = check(r, code, body)
		}(i, due, sentAt)
	}
	wg.Wait()
	var o openStats
	for i, s := range samples {
		o.attempted++
		o.lateMS = append(o.lateMS, s.late)
		if !s.rep.ok {
			if s.rep.refused {
				o.refused++
			}
			o.fail(1, "open loop: %s", s.rep.problem)
			continue
		}
		o.latMS = append(o.latMS, s.lat)
		if w.pool[sched[i].req].class == serveBenign {
			o.cheapMS = append(o.cheapMS, s.lat)
		}
		wait := float64(s.rep.resp.Batch.WaitMicros) / 1e3
		o.waitMS = append(o.waitMS, wait)
		o.serviceMS = append(o.serviceMS, max(0, s.sent-wait))
		o.batchSizes = append(o.batchSizes, float64(s.rep.resp.Batch.Size))
	}
	return o
}

func (w *serveMixed) pass(tr *tracer, parent int, p *passStats) error {
	var rounds int
	for k := 0; k < servePassOps; k++ {
		r := w.at(k)
		id := tr.begin("serve."+serveClassNames[r.class], parent)
		code, body := w.do(r)
		tr.end(id)
		p.attempted++
		rep := check(r, code, body)
		if !rep.ok {
			p.fail(1, "sequential pass: %s", rep.problem)
			continue
		}
		p.decisions++
		rounds += rep.resp.Outcome.Rounds
	}
	p.det["sim.rounds_per_decision"] = ratio(float64(rounds), float64(p.decisions))
	return nil
}

// traceLoad runs a traced open-loop phase for d, sampling the daemon's
// queue depth from /healthz, and reports the daemon's stage metrics.
func (w *serveMixed) traceLoad(tr *tracer, d time.Duration, out map[string]float64, p *passStats) error {
	stop := make(chan struct{})
	var depthMax atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			rec := httptest.NewRecorder()
			w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var h struct {
				QueueDepth int64 `json:"queue_depth"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &h) == nil && h.QueueDepth > depthMax.Load() {
				depthMax.Store(h.QueueDepth)
			}
		}
	}()
	id := tr.begin("openloop", 0)
	o := w.openLoop(d, tr, id)
	tr.end(id)
	close(stop)
	wg.Wait()
	p.add(o.tally)
	out["server.wait_ms_p50"] = quantile(o.waitMS, 0.5)
	out["server.wait_ms_p99"] = quantile(o.waitMS, 0.99)
	out["server.service_ms_p50"] = quantile(o.serviceMS, 0.5)
	out["server.service_ms_p99"] = quantile(o.serviceMS, 0.99)
	out["server.batch_size_mean"] = mean(o.batchSizes)
	out["server.queue_depth_max"] = float64(depthMax.Load())
	out["server.rejected"] = float64(o.refused)
	out["loadgen.late_p99_ms"] = quantile(o.lateMS, 0.99)
	if len(o.lateMS) > 0 {
		out["loadgen.late_max_ms"] = slices.Max(o.lateMS)
	}
	return nil
}

func (w *serveMixed) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx) // every request has completed; nothing is left to drain
}
