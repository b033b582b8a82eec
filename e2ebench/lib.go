package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lbcast"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
)

// Classes of the session-lib mix, cheapest first.
const (
	libFig1a  = iota // figure1a, f=1, benign
	libFig1b         // figure1b, f=2, benign
	libHarary        // Harary(4,10), f=2, one silent fault
	libAlgo2         // Algorithm 2 on figure1b, f=2, one tamper fault
	libClasses
)

var libClassNames = [libClasses]string{"figure1a", "figure1b", "harary-silent", "algo2-tamper"}

// libDeck is one shuffled cycle of the mix: 60% / 25% / 10% / 5%. Drawing
// from a deck keeps the class shares exact, so the median stays inside the
// figure1a class and the p99 inside the Algorithm 2 class on every seed.
var libDeck = [libClasses]int{12, 5, 2, 1}

// libPassOps is the operation count of the fixed pass.
const libPassOps = 600

// sessionLib is one library caller in a closed loop: each operation builds
// a Session with default options (so the per-node goroutine engine is on)
// and runs it.
type sessionLib struct {
	graphs [libClasses]*lbcast.Graph
	seed   int64
}

func newSessionLib() workload { return &sessionLib{} }

// libOp is one generated operation.
type libOp struct {
	class  int
	g      *lbcast.Graph
	f      int
	inputs map[lbcast.NodeID]lbcast.Value
	faulty lbcast.NodeID
	tseed  int64
}

// libGen generates the seeded operation stream.
type libGen struct {
	w    *sessionLib
	rng  *rand.Rand
	deck []int
}

func (w *sessionLib) newGen(seed int64) *libGen {
	return &libGen{w: w, rng: rand.New(rand.NewSource(seed))}
}

func (gn *libGen) next() libOp {
	if len(gn.deck) == 0 {
		for c, k := range libDeck {
			for j := 0; j < k; j++ {
				gn.deck = append(gn.deck, c)
			}
		}
		gn.rng.Shuffle(len(gn.deck), func(i, j int) { gn.deck[i], gn.deck[j] = gn.deck[j], gn.deck[i] })
	}
	c := gn.deck[0]
	gn.deck = gn.deck[1:]
	g := gn.w.graphs[c]
	op := libOp{class: c, g: g, f: 2, inputs: make(map[lbcast.NodeID]lbcast.Value, g.N())}
	if c == libFig1a {
		op.f = 1
	}
	for u := 0; u < g.N(); u++ {
		op.inputs[lbcast.NodeID(u)] = lbcast.Value(gn.rng.Intn(2))
	}
	op.faulty = lbcast.NodeID(gn.rng.Intn(g.N()))
	op.tseed = gn.rng.Int63()
	return op
}

// run executes op: NewSession and Run, timed by the caller. tr and parent
// wrap the adversary in a Step-timing decorator when tracing.
func (op libOp) run(tr *tracer, parent int) (lbcast.Result, error) {
	opts := []lbcast.Option{lbcast.WithFaults(op.f), lbcast.WithInputs(op.inputs)}
	var byz lbcast.Node
	switch op.class {
	case libHarary:
		byz = lbcast.NewSilentFault(op.faulty)
	case libAlgo2:
		byz = lbcast.NewTamperFault(op.g, op.faulty, lbcast.PhaseRounds(op.g), op.tseed)
		opts = append(opts, lbcast.WithAlgorithm(lbcast.Algorithm2))
	}
	if byz != nil {
		if tr != nil {
			byz = &timedNode{inner: byz, tr: tr, parent: parent}
		}
		opts = append(opts, lbcast.WithByzantine(map[lbcast.NodeID]lbcast.Node{op.faulty: byz}))
	}
	s, err := lbcast.NewSession(op.g, opts...)
	if err != nil {
		return lbcast.Result{}, err
	}
	return s.Run(context.Background())
}

func (w *sessionLib) setup(seed int64, tr *tracer) error {
	w.seed = seed
	id := tr.begin("graph.gen", 0)
	h, err := lbcast.Harary(4, 10)
	w.graphs = [libClasses]*lbcast.Graph{lbcast.Figure1a(), lbcast.Figure1b(), h, nil}
	w.graphs[libAlgo2] = w.graphs[libFig1b]
	tr.end(id)
	if err != nil {
		return err
	}
	for c, f := range map[int]int{libFig1a: 1, libFig1b: 2, libHarary: 2} {
		if err := analyze(w.graphs[c], f, tr); err != nil {
			return err
		}
		id := tr.begin("flood.compile", 0)
		flood.PlanFor(w.graphs[c].SharedAnalysis())
		tr.end(id)
	}
	ha := h.SharedAnalysis()
	for u := 0; u < h.N(); u++ {
		id := tr.begin("flood.masked_compile", 0)
		flood.MaskedPlanFor(ha, graph.NewSet(graph.NodeID(u)))
		tr.end(id)
	}
	// Pool warm-up: the first operations of a fixed stream until every
	// class has run once.
	id = tr.begin("warmup", 0)
	defer tr.end(id)
	var seen [libClasses]bool
	gn := w.newGen(warmupSeed)
	for left := libClasses; left > 0; {
		op := gn.next()
		res, err := op.run(nil, 0)
		if err != nil {
			return err
		}
		if !res.OK() {
			return fmt.Errorf("warm-up %s: consensus failed", libClassNames[op.class])
		}
		if !seen[op.class] {
			seen[op.class] = true
			left--
		}
	}
	return nil
}

func (w *sessionLib) prepare() error { return nil }

func (w *sessionLib) measure(d time.Duration, m *e2e) error {
	gn := w.newGen(w.seed)
	start := time.Now()
	for time.Since(start) < d {
		op := gn.next()
		t0 := time.Now()
		res, err := op.run(nil, 0)
		lat := ms(time.Since(t0))
		m.attempted++
		if err != nil {
			m.fail(1, "%s: %v", libClassNames[op.class], err)
			continue
		}
		if !res.OK() {
			m.fail(1, "%s: consensus failed: %+v", libClassNames[op.class], res)
			continue
		}
		m.done(t0, 1)
		m.latMS = append(m.latMS, lat)
	}
	return nil
}

func (w *sessionLib) pass(tr *tracer, parent int, p *passStats) error {
	gn := w.newGen(w.seed)
	var rounds, trans, deliv int
	for i := 0; i < libPassOps; i++ {
		op := gn.next()
		id := tr.begin("op."+libClassNames[op.class], parent)
		res, err := op.run(tr, id)
		tr.end(id)
		p.attempted++
		if err != nil {
			p.fail(1, "%s: %v", libClassNames[op.class], err)
			continue
		}
		if !res.OK() {
			p.fail(1, "%s: consensus failed", libClassNames[op.class])
			continue
		}
		p.decisions++
		rounds += res.Rounds
		trans += res.Transmissions
		deliv += res.Deliveries
	}
	p.det["sim.rounds_per_decision"] = ratio(float64(rounds), float64(p.decisions))
	p.det["sim.transmissions_per_decision"] = ratio(float64(trans), float64(p.decisions))
	p.det["sim.deliveries_per_decision"] = ratio(float64(deliv), float64(p.decisions))
	return nil
}

func (w *sessionLib) close() {}
