package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
)

// mcWorkload drives eval.MonteCarlo the way lbcmc does: one operation is
// one sweep of chunk trials, each sweep seeded from the run's seed and the
// operation's index.
type mcWorkload struct {
	cfg eval.MonteCarloConfig
	// chunk is the trial count of one operation; passChunks the number of
	// operations in the fixed pass; warm the trial count of set-up's
	// warm-up sweep.
	chunk, passChunks, warm int
	// deltaShapes makes set-up compile a delta plan per fault set too.
	deltaShapes bool
	seed        int64
	// perm is the catalog order of the run's sweeps in cycle permCycle.
	perm      []int
	permCycle int
}

// newMCFaulty is the lbcmc faulty-world sweep: every other trial carries
// two faults of a random strategy and a quarter of the trials get link
// churn after the first phase, unbatched.
func newMCFaulty() workload {
	return &mcWorkload{
		cfg: eval.MonteCarloConfig{
			F:          2,
			Algorithm:  eval.Algo1,
			FaultProb:  0.5,
			Strategies: []string{"silent", "tamper", "equivocate", "forge"},
			ChurnProfile: eval.ChurnProfile{
				Kind: "churn", Prob: 0.25, Start: core.PhaseRounds(figure1bN),
			},
			Workers: runtime.NumCPU(),
		},
		// At 4·nproc trials a sweep, the p99 sweep latency hung on the few
		// sweeps that drew several full-budget worlds at once and swung by
		// a sixth between seeds.
		chunk:       16 * runtime.NumCPU(),
		passChunks:  6,
		warm:        4 * runtime.NumCPU(),
		deltaShapes: true,
	}
}

// newMCBatched is the lbcmc -batch rare-fault sweep: one trial in eight
// has two silent faults, trials run in batches of 64.
func newMCBatched() workload {
	return &mcWorkload{
		cfg: eval.MonteCarloConfig{
			F:          2,
			Algorithm:  eval.Algo1,
			FaultProb:  0.125,
			Strategies: []string{"silent"},
			Batch:      64,
			Workers:    runtime.NumCPU(),
		},
		chunk:      64 * 2 * runtime.NumCPU(),
		passChunks: 16,
		warm:       64 * 2 * runtime.NumCPU(),
	}
}

// warmupSeed seeds the inputs of every workload's set-up warm-up, so that
// set-up does the same work on every run seed.
const warmupSeed = -1

// figure1bN is the vertex count of the Figure 1(b) stand-in, C_8(1,2).
const figure1bN = 8

func (w *mcWorkload) setup(seed int64, tr *tracer) error {
	w.seed = seed
	id := tr.begin("graph.gen", 0)
	g := gen.Figure1b()
	tr.end(id)
	if err := analyze(g, w.cfg.F, tr); err != nil {
		return err
	}
	a := g.SharedAnalysis()
	id = tr.begin("flood.compile", 0)
	flood.PlanFor(a)
	tr.end(id)
	// Every fault set the sweep can draw: each pair of vertices. All-silent
	// pairs replay a masked plan, value faults a delta plan.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			set := graph.NewSet(graph.NodeID(u), graph.NodeID(v))
			id = tr.begin("flood.masked_compile", 0)
			flood.MaskedPlanFor(a, set)
			tr.end(id)
			if w.deltaShapes {
				id = tr.begin("flood.delta_compile", 0)
				flood.DeltaPlanFor(a, set)
				tr.end(id)
			}
		}
	}
	w.cfg.G = g
	// Pool warm-up: one small sweep fills the run and scaffolding pools. Its
	// seed is fixed so that set-up does the same work on every run seed.
	id = tr.begin("warmup", 0)
	defer tr.end(id)
	warm := w.cfg
	warm.Trials = w.warm
	warm.Seed = warmupSeed
	res, err := eval.MonteCarlo(warm)
	if err != nil {
		return err
	}
	if msg := mcCheck(res); msg != "" {
		return fmt.Errorf("warm-up sweep: %s", msg)
	}
	return nil
}

// analyze builds g's shared topology analysis and checks that g meets the
// paper's conditions for f faults under local broadcast: minimum degree at
// least 2f and connectivity at least floor(3f/2)+1.
func analyze(g *graph.Graph, f int, tr *tracer) error {
	id := tr.begin("graph.analysis", 0)
	a := g.SharedAnalysis()
	conn, deg := a.Connectivity(), a.MinDegree()
	tr.end(id)
	if deg < 2*f || conn < 3*f/2+1 {
		return fmt.Errorf("graph %v is below the threshold for f=%d (degree %d, connectivity %d)", g, f, deg, conn)
	}
	return nil
}

func (w *mcWorkload) prepare() error { return nil }

// mcCatalog is how many distinct sweeps a run draws from. Every run seed
// offers the same sweeps, seeded from catalogSeed, and deals them in
// shuffled cycles of its own, so that a run covers the catalog two or more
// times over. With a fresh sweep seed per operation, the share of
// full-budget worlds among a run's trials moved from seed to seed, and with
// it the median sweep latency.
const mcCatalog = 24

// op runs sweep i and returns its judged-correct decisions.
func (w *mcWorkload) op(i int) (eval.MonteCarloResult, error) {
	if cycle := i / mcCatalog; w.perm == nil || cycle != w.permCycle {
		w.perm = rand.New(rand.NewSource(mix(w.seed, int64(cycle)))).Perm(mcCatalog)
		w.permCycle = cycle
	}
	cfg := w.cfg
	cfg.Trials = w.chunk
	cfg.Seed = mix(catalogSeed, int64(w.perm[i%mcCatalog]))
	return eval.MonteCarlo(cfg)
}

// mcCheck returns why a sweep failed the correctness gate, or "": every
// trial must be OK or Degraded (excused by the paper's threshold), with no
// violation.
func mcCheck(res eval.MonteCarloResult) string {
	if len(res.Violations) > 0 || res.OK+res.Degraded != res.Trials {
		return fmt.Sprintf("%d violations, ok %d + degraded %d of %d trials",
			len(res.Violations), res.OK, res.Degraded, res.Trials)
	}
	return ""
}

func (w *mcWorkload) measure(d time.Duration, m *e2e) error {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		res, err := w.op(i)
		lat := ms(time.Since(t0))
		m.attempted += w.chunk
		if err != nil {
			return err
		}
		if msg := mcCheck(res); msg != "" {
			m.fail(res.Trials-res.OK-res.Degraded, "sweep %d: %s", i, msg)
		}
		m.done(t0, res.OK+res.Degraded)
		m.latMS = append(m.latMS, lat)
	}
	return nil
}

func (w *mcWorkload) pass(tr *tracer, parent int, p *passStats) error {
	var degraded int
	for i := 0; i < w.passChunks; i++ {
		id := tr.begin("eval.MonteCarlo", parent)
		res, err := w.op(i)
		tr.end(id)
		p.attempted += w.chunk
		if err != nil {
			return err
		}
		if msg := mcCheck(res); msg != "" {
			p.fail(res.Trials-res.OK-res.Degraded, "sweep %d: %s", i, msg)
		}
		p.decisions += res.OK + res.Degraded
		degraded += res.Degraded
	}
	p.det["eval.degraded_per_trial"] = ratio(float64(degraded), float64(p.attempted))
	return nil
}

func (w *mcWorkload) close() {}

// mix derives the seed of stream i from the run's seed (splitmix64).
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
