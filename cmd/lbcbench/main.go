// Command lbcbench runs the library's representative benchmark workloads
// via testing.Benchmark and emits the measurements as JSON, so successive
// PRs can track the performance trajectory in checked-in BENCH_*.json
// files without parsing `go test -bench` text output.
//
// Workload names are slash-separated descriptors,
// "<family>/<algorithm-or-subject>/<graph>/<variant>": the session/*
// workloads run one consensus execution per op, sweep/* and montecarlo/*
// run a whole sweep per op, the throughput/* pairs run the same B
// instances either batched (one multi-instance engine) or as independent
// sequential Session runs — the batched/independent ratio is the batching
// speedup — and the serving/* workloads drive B concurrent requests
// through the lbcastd daemon's full admit/pack/decide path. The output
// schema (also printed by -help) is documented in DESIGN.md §8.
//
// Usage:
//
//	lbcbench                      # all workloads, JSON to stdout
//	lbcbench -filter algo1        # substring-filtered workloads
//	lbcbench -batch               # only the batched-throughput pairs
//	lbcbench -out BENCH_4.json -prev BENCH_3.json
//	lbcbench -check-allocs testdata/alloc_budgets.json
//	lbcbench -leaderboard BENCH_5.json,BENCH_7.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lbcast"
	"lbcast/internal/adversary"
	"lbcast/internal/cliutil"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph/gen"
	"lbcast/internal/server"
)

func main() {
	// SIGINT/SIGTERM stop the suite between workloads: measurements already
	// taken still flush as valid JSON, so an interrupted long run leaves a
	// usable partial BENCH file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbcbench:", err)
		os.Exit(1)
	}
}

// Measurement is one workload's recorded result; this is the element type
// of the BENCH_*.json files (a JSON array of these, one per workload).
// See DESIGN.md §8 for the schema contract.
type Measurement struct {
	// Name is the stable slash-separated workload descriptor.
	Name string `json:"name"`
	// Iterations is the op count testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall-clock nanoseconds per op (one op = one execution,
	// sweep, or batch, depending on the workload family).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp / BytesPerOp are the allocator counters per op.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Instances is the number of consensus instances one op completes;
	// set only on throughput workloads.
	Instances int `json:"instances,omitempty"`
	// DecisionsPerSec is Instances / seconds-per-op: completed consensus
	// instances per second. Set only on throughput workloads; the
	// batched-vs-independent ratio on the same instances is the batching
	// speedup tracked by the acceptance criteria.
	DecisionsPerSec float64 `json:"decisions_per_sec,omitempty"`
	// PlanCompiles / PlanMaskedCompiles / PlanReplaySessions /
	// PlanDeltaReplays / PlanDynamicSessions are the propagation-plan
	// cache counters accumulated over the whole measurement (all
	// benchmark iterations): benign and masked (crash-world) plan
	// compilations, per-node flooding sessions served by wholesale
	// (benign or masked) replay, sessions served by delta replay around
	// value-faulty slots, and sessions that ran fully dynamic. A large
	// replay:compile ratio is the amortization the plan layer exists for.
	PlanCompiles        int64 `json:"plan_compiles,omitempty"`
	PlanMaskedCompiles  int64 `json:"plan_masked_compiles,omitempty"`
	PlanReplaySessions  int64 `json:"plan_replay_sessions,omitempty"`
	PlanDeltaReplays    int64 `json:"plan_delta_replays,omitempty"`
	PlanDynamicSessions int64 `json:"plan_dynamic_sessions,omitempty"`
	// ReplayHitRate is (PlanReplaySessions + PlanDeltaReplays) /
	// (PlanReplaySessions + PlanDeltaReplays + PlanDynamicSessions) — the
	// fraction of flooding sessions served by any replay tier. Present (a
	// pointer, so an explicit 0 survives JSON encoding) whenever the
	// workload counted any phase-node flooding session: a recorded 0
	// means replay never engaged — the regression signal the CI smoke job
	// asserts on — while workloads that never flood via phase nodes omit
	// the field entirely.
	ReplayHitRate *float64 `json:"replay_hit_rate,omitempty"`
	// TrialPoolHits / AdversaryReuses are the Monte Carlo scaffolding
	// counters accumulated over the whole measurement: trial-scratch pool
	// hits (a recycled RNG + input slab + fault-list bundle) and adversary
	// instances re-armed through the strategy pools instead of
	// constructed. Zero (omitted) on workloads that never run Monte Carlo
	// trials; the CI smoke job asserts they engage on the faultprob
	// workload.
	TrialPoolHits   int64 `json:"trial_pool_hits,omitempty"`
	AdversaryReuses int64 `json:"adversary_reuses,omitempty"`
	// ChurnEvents / PlanInvalidations are the fault-injection counters
	// accumulated over the whole measurement: topology events applied at
	// round boundaries and replay-qualified runs whose compiled-plan
	// replay a schedule cut back to the taint frontier. Zero (omitted) on
	// workloads without injection; the CI smoke job asserts they engage on
	// the churn workload.
	ChurnEvents       int64 `json:"churn_events,omitempty"`
	PlanInvalidations int64 `json:"plan_invalidations,omitempty"`
}

// benchSchema is the -help description of the BENCH_*.json output format.
const benchSchema = `output schema (BENCH_*.json):
  A JSON array with one object per workload:
    name              stable slash-separated workload descriptor
    iterations        op count testing.Benchmark settled on
    ns_per_op         wall-clock nanoseconds per op
    allocs_per_op     heap allocations per op
    bytes_per_op      heap bytes per op
    instances         consensus instances completed per op (throughput workloads only)
    decisions_per_sec instances / seconds-per-op (throughput workloads only)
    plan_compiles     benign propagation-plan compilations over the whole measurement
    plan_masked_compiles  crash-world masked plan compilations
    plan_replay_sessions  per-node flooding sessions served by wholesale
                      (benign or masked) compiled-plan replay
    plan_delta_replays    per-node flooding sessions served by delta replay
                      around value-faulty slots
    plan_dynamic_sessions per-node flooding sessions on the fully dynamic path
    replay_hit_rate   (replay + delta) / (replay + delta + dynamic) session
                      fraction; present (possibly an explicit 0) whenever
                      any phase-node flooding session was counted
    trial_pool_hits   Monte Carlo trial-scaffolding pool hits (recycled
                      RNG/input-slab/fault-list bundles) over the whole
                      measurement
    adversary_reuses  adversary instances recycled through the strategy
                      pools instead of constructed, over the whole
                      measurement
    churn_events      fault-injection topology events applied at round
                      boundaries over the whole measurement
    plan_invalidations  runs whose compiled-plan replay a fault-injection
                      schedule cut back to the taint frontier (or abandoned)
  One op is one consensus execution (session/*), one full sweep
  (sweep/*, montecarlo/*), one batch of B instances (throughput/*), or
  one packed group of B served requests (serving/*). The montecarlo/*
  sweeps also record instances/decisions_per_sec (one decision per trial),
  so they rank on the leaderboard alongside the throughput families.
  The throughput/batch vs throughput/independent pairs run identical
  instance sets; their decisions_per_sec ratio is the batching speedup.
  The plan_* counters are accumulated across every benchmark iteration of
  the workload (not per op); omitted when zero.`

// workload binds a benchmark name to its body. instances, when non-zero,
// marks a throughput workload completing that many consensus instances
// per op.
type workload struct {
	name      string
	instances int
	fn        func(b *testing.B)
}

// mustSession builds a session or aborts the benchmark.
func mustSession(b *testing.B, g *lbcast.Graph, opts ...lbcast.Option) *lbcast.Session {
	b.Helper()
	s, err := lbcast.NewSession(g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// runSession runs the session once and asserts consensus held.
func runSession(b *testing.B, s *lbcast.Session) {
	b.Helper()
	res, err := s.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if !res.OK() {
		b.Fatalf("consensus failed: %+v", res)
	}
}

func alternatingInputs(n int) map[lbcast.NodeID]lbcast.Value {
	m := make(map[lbcast.NodeID]lbcast.Value, n)
	for i := 0; i < n; i++ {
		m[lbcast.NodeID(i)] = lbcast.Value(i % 2)
	}
	return m
}

// throughputInstances builds the B instances shared by a throughput pair:
// rotated input vectors, with a (stateless) silent fault on every fourth
// instance so the mix covers both the early-deciding and the slow path.
// The instances are stateless, so the same slice is reused across ops and
// between the batched and the independent runner.
func throughputInstances(g *lbcast.Graph, b int) []lbcast.BatchInstance {
	n := g.N()
	out := make([]lbcast.BatchInstance, b)
	for i := range out {
		inputs := make(map[lbcast.NodeID]lbcast.Value, n)
		for u := 0; u < n; u++ {
			inputs[lbcast.NodeID(u)] = lbcast.Value((u + i) % 2)
		}
		inst := lbcast.BatchInstance{Inputs: inputs}
		if i%4 == 3 {
			z := lbcast.NodeID(i % n)
			inst.Byzantine = map[lbcast.NodeID]lbcast.Node{z: lbcast.NewSilentFault(z)}
		}
		out[i] = inst
	}
	return out
}

// servingBodies builds B distinct benign decision requests for the
// serving workloads (rotated input patterns over figure1b). Benign traffic
// is the daemon's steady state, so the recorded replay_hit_rate is the
// compiled-plan fraction under serving load (~1 by design).
func servingBodies(bsize int) [][]byte {
	out := make([][]byte, bsize)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"graph":"figure1b","f":2,"input_pattern":[%d,%d,1]}`, i%2, (i/2)%2))
	}
	return out
}

// servingWorkload measures lbcastd's full decide path — admit, pack,
// batch-execute, respond — by driving B concurrent in-process HTTP
// requests per op against a Server handler; one op is one packed group of
// B decisions.
func servingWorkload(name string, bsize int) workload {
	return workload{name: name, instances: bsize, fn: func(b *testing.B) {
		srv := server.New(server.Config{
			Workers:     1,
			MaxBatch:    bsize,
			Linger:      time.Second, // groups flush by size, never by timer
			MaxPending:  4 * bsize,
			ClientQuota: 4 * bsize,
		})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				b.Error(err)
			}
		}()
		h := srv.Handler()
		bodies := servingBodies(bsize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for j := 0; j < bsize; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(bodies[j]))
					req.Header.Set("X-Client-ID", fmt.Sprintf("bench-%d", j%8))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Errorf("decide: status %d: %s", rec.Code, rec.Body.Bytes())
					}
				}(j)
			}
			wg.Wait()
		}
	}}
}

// workloads returns the benchmark suite. The early/full pair on the same
// instance makes the early-termination speedup directly visible in the
// recorded numbers.
func workloads() []workload {
	return []workload{
		{name: "session/algo1/figure1a/early", fn: func(b *testing.B) {
			g := lbcast.Figure1a()
			s := mustSession(b, g, lbcast.WithFaults(1), lbcast.WithInputs(alternatingInputs(g.N())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, s)
			}
		}},
		{name: "session/algo1/figure1a/full-budget", fn: func(b *testing.B) {
			g := lbcast.Figure1a()
			s := mustSession(b, g, lbcast.WithFaults(1), lbcast.WithInputs(alternatingInputs(g.N())),
				lbcast.WithFullBudget())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, s)
			}
		}},
		{name: "session/algo1/figure1a/tamper", fn: func(b *testing.B) {
			g := lbcast.Figure1a()
			s := mustSession(b, g, lbcast.WithFaults(1), lbcast.WithInputs(alternatingInputs(g.N())),
				lbcast.WithByzantine(map[lbcast.NodeID]lbcast.Node{
					2: lbcast.NewTamperFault(g, 2, lbcast.PhaseRounds(g), 42),
				}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, s)
			}
		}},
		{name: "session/algo1/figure1b/early", fn: func(b *testing.B) {
			g := lbcast.Figure1b()
			s := mustSession(b, g, lbcast.WithFaults(2), lbcast.WithInputs(alternatingInputs(g.N())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, s)
			}
		}},
		{name: "session/algo2/figure1b/tamper", fn: func(b *testing.B) {
			g := lbcast.Figure1b()
			s := mustSession(b, g, lbcast.WithFaults(2), lbcast.WithAlgorithm(lbcast.Algorithm2),
				lbcast.WithInputs(alternatingInputs(g.N())),
				lbcast.WithByzantine(map[lbcast.NodeID]lbcast.Node{
					3: lbcast.NewTamperFault(g, 3, lbcast.PhaseRounds(g), 5),
				}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, s)
			}
		}},
		{name: "session/algo2/figure1a", fn: func(b *testing.B) {
			g := lbcast.Figure1a()
			s := mustSession(b, g, lbcast.WithFaults(1), lbcast.WithAlgorithm(lbcast.Algorithm2),
				lbcast.WithInputs(alternatingInputs(g.N())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, s)
			}
		}},
		{name: "sweep/figure1a/strategies", fn: func(b *testing.B) {
			grid := eval.Grid{
				Graphs:     []eval.GraphCase{{Label: "figure1a", G: gen.Figure1a()}},
				Faults:     []int{1},
				Strategies: []string{"none", "silent", "tamper", "forge"},
				Placements: 2,
				Seed:       7,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.RunSweep(context.Background(), grid, 0)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.OK != res.Stats.Cells {
					b.Fatalf("sweep violations: %+v", res.Stats)
				}
			}
		}},
		{name: "montecarlo/figure1b/256-trials", instances: 256, fn: func(b *testing.B) {
			// The amortization-heavy rare-fault stream: one compiled plan
			// and one topology analysis serve all 256 trials, ~94% of which
			// are benign and replay the plan end to end.
			g := gen.Figure1b()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.MonteCarlo(eval.MonteCarloConfig{
					G: g, F: 2, Algorithm: eval.Algo1, Trials: 256, Seed: 5, FaultProb: 0.0625,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.OK != res.Trials {
					b.Fatalf("violations: %+v", res.Violations)
				}
			}
		}},
		{name: "montecarlo/figure1b/faultprob", instances: 128, fn: func(b *testing.B) {
			// The fault-heavy stream: half the trials draw crash, tamper,
			// equivocation, or forgery patterns, so most sessions ride the
			// masked and delta replay tiers instead of the benign plan —
			// the CI smoke job asserts this workload's replay_hit_rate
			// stays >= 0.95.
			g := gen.Figure1b()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.MonteCarlo(eval.MonteCarloConfig{
					G: g, F: 2, Algorithm: eval.Algo1, Trials: 128, Seed: 11, FaultProb: 0.5,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.OK != res.Trials {
					b.Fatalf("violations: %+v", res.Violations)
				}
			}
		}},
		{name: "montecarlo/figure1b/churn", instances: 64, fn: func(b *testing.B) {
			// The fault-injection stream: half the trials receive a seeded
			// link-churn schedule landing after the first phase, so their
			// clean prefix still replays the compiled plan up to the taint
			// frontier while the injected tail runs dynamically over the
			// masked topology. Worlds pushed below the thresholds classify
			// as degraded, never as violations — the CI smoke job asserts
			// plan_invalidations engages and replay_hit_rate keeps a floor.
			g := gen.Figure1b()
			churnStart := lbcast.PhaseRounds(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.MonteCarlo(eval.MonteCarloConfig{
					G: g, F: 2, Algorithm: eval.Algo1, Trials: 64, Seed: 9,
					ChurnProfile: eval.ChurnProfile{Kind: "churn", Prob: 0.5, Start: churnStart},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) > 0 {
					b.Fatalf("violations: %+v", res.Violations)
				}
			}
		}},
		{name: "montecarlo/figure1a/16-trials", instances: 16, fn: func(b *testing.B) {
			g := gen.Figure1a()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.MonteCarlo(eval.MonteCarloConfig{
					G: g, F: 1, Algorithm: eval.Algo1, Trials: 16, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.OK != res.Trials {
					b.Fatalf("violations: %+v", res.Violations)
				}
			}
		}},
		{name: "throughput/batch/figure1b/B16", instances: 16, fn: func(b *testing.B) {
			g := lbcast.Figure1b()
			batch, err := lbcast.NewBatch(g, throughputInstances(g, 16), lbcast.WithFaults(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := batch.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("batch consensus failed: %+v", res)
				}
			}
		}},
		{name: "throughput/independent/figure1b/B16", instances: 16, fn: func(b *testing.B) {
			g := lbcast.Figure1b()
			insts := throughputInstances(g, 16)
			sessions := make([]*lbcast.Session, len(insts))
			for i, inst := range insts {
				sessions[i] = mustSession(b, g, lbcast.WithFaults(2),
					lbcast.WithInputs(inst.Inputs), lbcast.WithByzantine(inst.Byzantine))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sessions {
					runSession(b, s)
				}
			}
		}},
		{name: "throughput/batch/harary/B32", instances: 32, fn: func(b *testing.B) {
			// A denser-overlay batch: Harary H_{4,10} with 32 instances,
			// every fourth carrying a silent fault — the benign 24 collapse
			// into one replaying vector lane group while the faulty 8 stay
			// dynamic in the same round loop.
			g, err := lbcast.Harary(4, 10)
			if err != nil {
				b.Fatal(err)
			}
			batch, err := lbcast.NewBatch(g, throughputInstances(g, 32), lbcast.WithFaults(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := batch.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("batch consensus failed: %+v", res)
				}
			}
		}},
		{name: "throughput/batch/montecarlo/B64", instances: 64, fn: func(b *testing.B) {
			g := gen.Figure1a()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.MonteCarlo(eval.MonteCarloConfig{
					G: g, F: 1, Algorithm: eval.Algo1, Trials: 64, Seed: 3,
					FaultProb: 0.125, Workers: 1, Batch: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.OK != res.Trials {
					b.Fatalf("violations: %+v", res.Violations)
				}
			}
		}},
		{name: "throughput/independent/montecarlo/B64", instances: 64, fn: func(b *testing.B) {
			g := gen.Figure1a()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.MonteCarlo(eval.MonteCarloConfig{
					G: g, F: 1, Algorithm: eval.Algo1, Trials: 64, Seed: 3,
					FaultProb: 0.125, Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.OK != res.Trials {
					b.Fatalf("violations: %+v", res.Violations)
				}
			}
		}},
		// The daemon serving workloads: B requests through the full
		// admit/pack/decide/respond path, one packed group per op.
		// decisions_per_sec here is end-to-end serving throughput, HTTP
		// included. The -single suffix keeps the names comparable with
		// earlier BENCH files.
		servingWorkload("serving/decide/figure1b/B16-single", 16),
		servingWorkload("serving/decide/figure1b/B64-single", 64),
	}
}

// loadMeasurements reads a BENCH_*.json file into a name-indexed map.
func loadMeasurements(path string) (map[string]Measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []Measurement
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Measurement, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out, nil
}

// printDeltas writes a human-readable bytes_per_op / ns_per_op delta
// summary against a previous BENCH file to w (one line per workload that
// exists in both runs).
func printDeltas(w io.Writer, ms []Measurement, prev map[string]Measurement) {
	fmt.Fprintln(w, "deltas vs previous BENCH file:")
	for _, m := range ms {
		p, ok := prev[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-40s (new workload)\n", m.Name)
			continue
		}
		line := fmt.Sprintf("  %-40s bytes/op %d -> %d", m.Name, p.BytesPerOp, m.BytesPerOp)
		if m.BytesPerOp > 0 {
			line += fmt.Sprintf(" (%.2fx)", float64(p.BytesPerOp)/float64(m.BytesPerOp))
		}
		if m.NsPerOp > 0 {
			line += fmt.Sprintf(", ns/op %.0f -> %.0f (%.2fx)", p.NsPerOp, m.NsPerOp, p.NsPerOp/m.NsPerOp)
		}
		fmt.Fprintln(w, line)
	}
}

// allocBudgets is the checked-in allocs_per_op budget file format
// (testdata/alloc_budgets.json): workload name -> budget. A measured
// allocs_per_op more than allocSlack above its budget fails the gate.
type allocBudgets map[string]int64

// allocSlack is the tolerated allocs_per_op regression over a budget.
const allocSlack = 0.15

// checkAllocs gates measured allocs_per_op against budgets, reporting
// every over-budget workload. Budgeted workloads missing from ms fail
// too — a silently skipped gate is a broken gate.
func checkAllocs(w io.Writer, ms []Measurement, budgets allocBudgets) error {
	byName := make(map[string]Measurement, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		budget := budgets[name]
		m, ok := byName[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: budgeted workload was not measured", name))
			continue
		}
		limit := int64(float64(budget) * (1 + allocSlack))
		status := "ok"
		if m.AllocsPerOp > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds budget %d (+%d%% limit %d)",
				name, m.AllocsPerOp, budget, int(allocSlack*100), limit))
		}
		fmt.Fprintf(w, "alloc gate %-40s %d/%d allocs/op (limit %d): %s\n", name, m.AllocsPerOp, budget, limit, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// graphFamily extracts the graph segment of a workload descriptor
// ("<family>/<algorithm-or-subject>/<graph>/<variant>") for leaderboard
// grouping. The three-segment montecarlo/<graph>/<variant> sweeps carry
// their graph in the second segment; workloads with fewer segments group
// under "-".
func graphFamily(name string) string {
	parts := strings.Split(name, "/")
	if parts[0] == "montecarlo" && len(parts) >= 2 {
		return parts[1]
	}
	if len(parts) >= 3 {
		return parts[2]
	}
	return "-"
}

// printLeaderboard renders a decisions/sec table from one or more
// BENCH_*.json files: one row per workload that recorded a
// decisions_per_sec (the throughput/*, serving/*, and montecarlo/*
// families — tie-broken deterministically by name within a group), one
// column per file, rows grouped by graph family and ranked within each
// group by the last (newest) file's throughput. This is the
// trajectory-at-a-glance view: feed it the whole BENCH_* sequence and
// each column is one PR.
func printLeaderboard(w io.Writer, paths []string) error {
	type column struct {
		label string
		ms    map[string]Measurement
	}
	cols := make([]column, 0, len(paths))
	names := make(map[string]bool)
	for _, p := range paths {
		p = strings.TrimSpace(p)
		ms, err := loadMeasurements(p)
		if err != nil {
			return err
		}
		for name, m := range ms {
			if m.DecisionsPerSec > 0 {
				names[name] = true
			}
		}
		cols = append(cols, column{label: strings.TrimSuffix(filepath.Base(p), ".json"), ms: ms})
	}
	if len(names) == 0 {
		return fmt.Errorf("no throughput measurements (decisions_per_sec) in %s", strings.Join(paths, ", "))
	}
	rows := make([]string, 0, len(names))
	for name := range names {
		rows = append(rows, name)
	}
	newest := cols[len(cols)-1].ms
	sort.Slice(rows, func(i, j int) bool {
		gi, gj := graphFamily(rows[i]), graphFamily(rows[j])
		if gi != gj {
			return gi < gj
		}
		if di, dj := newest[rows[i]].DecisionsPerSec, newest[rows[j]].DecisionsPerSec; di != dj {
			return di > dj
		}
		return rows[i] < rows[j]
	})
	fmt.Fprintln(w, "decisions/sec leaderboard (grouped by graph family, ranked by newest column):")
	fmt.Fprintf(w, "%-42s %-12s %4s", "workload", "graph", "B")
	for _, c := range cols {
		fmt.Fprintf(w, "  %14s", c.label)
	}
	fmt.Fprintln(w)
	prevFamily := ""
	for _, name := range rows {
		fam := graphFamily(name)
		if prevFamily != "" && fam != prevFamily {
			fmt.Fprintln(w)
		}
		prevFamily = fam
		instances := 0
		for _, c := range cols {
			if m, ok := c.ms[name]; ok && m.Instances > 0 {
				instances = m.Instances
			}
		}
		fmt.Fprintf(w, "%-42s %-12s %4d", name, fam, instances)
		for _, c := range cols {
			if m, ok := c.ms[name]; ok && m.DecisionsPerSec > 0 {
				fmt.Fprintf(w, "  %14.1f", m.DecisionsPerSec)
			} else {
				fmt.Fprintf(w, "  %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// timeSlack is the tolerated ns_per_op regression against a previous
// BENCH file — looser semantics than the alloc gate (wall-clock is
// machine-sensitive), so it runs only when the caller supplies -prev.
const timeSlack = 0.15

// checkTime gates measured ns_per_op of the budgeted workloads against a
// previous BENCH file: more than timeSlack slower fails. Budgeted
// workloads absent from prev pass (new workload, nothing to regress
// against).
func checkTime(w io.Writer, ms []Measurement, prev map[string]Measurement, budgets allocBudgets) error {
	var failures []string
	for _, m := range ms {
		if _, budgeted := budgets[m.Name]; !budgeted {
			continue
		}
		p, ok := prev[m.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		limit := p.NsPerOp * (1 + timeSlack)
		status := "ok"
		if m.NsPerOp > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds previous %.0f (+%d%% limit %.0f)",
				m.Name, m.NsPerOp, p.NsPerOp, int(timeSlack*100), limit))
		}
		fmt.Fprintf(w, "time gate  %-40s %.0f/%.0f ns/op (limit %.0f): %s\n", m.Name, m.NsPerOp, p.NsPerOp, limit, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("time regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lbcbench", flag.ContinueOnError)
	out := fs.String("out", "", "write JSON to this file instead of stdout")
	filter := fs.String("filter", "", "only run workloads whose name contains this substring")
	batchOnly := fs.Bool("batch", false, "only run the throughput/* batched-vs-independent pairs")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the benchmark runs to this file")
	memprofile := fs.String("memprofile", "", "write a pprof allocation profile of the benchmark runs to this file")
	prev := fs.String("prev", "", "previous BENCH_*.json file; print per-workload bytes_per_op/ns_per_op deltas to stderr")
	checkAllocsPath := fs.String("check-allocs", "",
		"allocs_per_op budget file (testdata/alloc_budgets.json); run only the budgeted workloads and fail on a >15% regression (with -prev, also fail on a >15% ns_per_op regression)")
	leaderboard := fs.String("leaderboard", "",
		"comma-separated BENCH_*.json files; print a decisions/sec leaderboard from the recorded measurements instead of running benchmarks")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lbcbench [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output())
		fmt.Fprintln(fs.Output(), benchSchema)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leaderboard != "" {
		return printLeaderboard(w, strings.Split(*leaderboard, ","))
	}
	var budgets allocBudgets
	if *checkAllocsPath != "" {
		data, err := os.ReadFile(*checkAllocsPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &budgets); err != nil {
			return fmt.Errorf("%s: %w", *checkAllocsPath, err)
		}
		if len(budgets) == 0 {
			return fmt.Errorf("%s: no budgets", *checkAllocsPath)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var ms []Measurement
	interrupted := false
	for _, wl := range workloads() {
		// The interrupt boundary: a signal between workloads stops the
		// suite but the measurements already taken still flush below.
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if *filter != "" && !strings.Contains(wl.name, *filter) {
			continue
		}
		if *batchOnly && !strings.HasPrefix(wl.name, "throughput/") {
			continue
		}
		if budgets != nil {
			if _, ok := budgets[wl.name]; !ok {
				continue
			}
		}
		// Isolate workloads from each other's heap state: a preceding
		// allocation-heavy workload otherwise leaves a large live heap and
		// its GC pacing behind, skewing the next measurement. The second
		// collection drains the run-state pools — sync.Pool empties over two
		// GC cycles (live → victim → gone) — so every workload starts cold
		// and its first-op pool misses are its own, not a predecessor's.
		runtime.GC()
		runtime.GC()
		before := flood.ReadPlanStats()
		trialHitsBefore, _ := eval.ReadTrialPoolStats()
		reusesBefore := adversary.ReadRecycleStats()
		churnEvtBefore, invalBefore := eval.ReadChurnStats()
		r := testing.Benchmark(wl.fn)
		after := flood.ReadPlanStats()
		trialHitsAfter, _ := eval.ReadTrialPoolStats()
		reusesAfter := adversary.ReadRecycleStats()
		churnEvtAfter, invalAfter := eval.ReadChurnStats()
		m := Measurement{
			Name:                wl.name,
			Iterations:          r.N,
			NsPerOp:             float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:         r.AllocsPerOp(),
			BytesPerOp:          r.AllocedBytesPerOp(),
			PlanCompiles:        after.Compiles - before.Compiles,
			PlanMaskedCompiles:  after.MaskedCompiles - before.MaskedCompiles,
			PlanReplaySessions:  after.ReplaySessions - before.ReplaySessions,
			PlanDeltaReplays:    after.DeltaReplaySessions - before.DeltaReplaySessions,
			PlanDynamicSessions: after.DynamicSessions - before.DynamicSessions,
			TrialPoolHits:       int64(trialHitsAfter - trialHitsBefore),
			AdversaryReuses:     int64(reusesAfter - reusesBefore),
			ChurnEvents:         int64(churnEvtAfter - churnEvtBefore),
			PlanInvalidations:   int64(invalAfter - invalBefore),
		}
		served := m.PlanReplaySessions + m.PlanDeltaReplays
		if total := served + m.PlanDynamicSessions; total > 0 {
			rate := float64(served) / float64(total)
			m.ReplayHitRate = &rate
		}
		if wl.instances > 0 && m.NsPerOp > 0 {
			m.Instances = wl.instances
			m.DecisionsPerSec = float64(wl.instances) * 1e9 / m.NsPerOp
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		if interrupted {
			return fmt.Errorf("interrupted before any workload completed")
		}
		return fmt.Errorf("no workloads match filter %q", *filter)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // flush recent allocation records into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}
	var prevMeasurements map[string]Measurement
	if *prev != "" {
		pm, err := loadMeasurements(*prev)
		if err != nil {
			return err
		}
		prevMeasurements = pm
		printDeltas(os.Stderr, ms, pm)
	}
	// Regression gates are meaningless on a partial run (the alloc gate
	// would fail every unmeasured budgeted workload), so an interrupt
	// skips them and flushes the partial measurements instead.
	if budgets != nil && !interrupted {
		if err := checkAllocs(os.Stderr, ms, budgets); err != nil {
			return err
		}
		// With a previous BENCH file at hand, also gate wall-clock time on
		// the budgeted workloads.
		if prevMeasurements != nil {
			if err := checkTime(os.Stderr, ms, prevMeasurements, budgets); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cliutil.WriteJSON(f, ms); err != nil {
			return err
		}
	} else if err := cliutil.WriteJSON(w, ms); err != nil {
		return err
	}
	if interrupted {
		return fmt.Errorf("interrupted after %d workloads; partial measurements flushed", len(ms))
	}
	return nil
}
