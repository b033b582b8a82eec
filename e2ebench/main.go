// Command e2ebench is the end-to-end benchmark of lbcast. It runs one
// seeded workload against the library's public entry points (Monte Carlo
// sweeps, the Session API, the lbcastd HTTP handler), checks every output
// for correctness, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload mc-faulty --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh compare OLD.json NEW.json
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 it carries the per-layer metrics of a traced
// run: spans the benchmark records around its own calls into the program,
// the program's counter readers, and a CPU profile the benchmark starts
// itself. README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// outDir holds the per-run reports and span files, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/e2ebench"

// setupReps is how many cold set-ups an untraced run times; setup_s is
// their median.
const setupReps = 5

// workload is one seeded input set the benchmark drives the program with.
type workload interface {
	// setup builds the workload from cold: graphs, topology analysis,
	// plan compiles, server construction and pool warm-up. It is timed.
	setup(seed int64, tr *tracer) error
	// prepare does untimed work that needs the finished set-up, such as
	// computing the expected outcome of every request.
	prepare() error
	// measure runs the untraced end-to-end phase for d.
	measure(d time.Duration, m *e2e) error
	// pass runs the workload's fixed operation list once, recording spans
	// under parent when tr is non-nil.
	pass(tr *tracer, parent int, p *passStats) error
	close()
}

// loadTracer is a workload with a traced load phase of its own after the
// fixed pass (serve-mixed's open loop), which reports per-layer metrics
// into out.
type loadTracer interface {
	traceLoad(tr *tracer, d time.Duration, out map[string]float64, p *passStats) error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"mc-faulty":   newMCFaulty,
	"mc-batched":  newMCBatched,
	"session-lib": newSessionLib,
	"serve-mixed": newServeMixed,
}

// tally counts attempted and failed operations and keeps the first few
// problems for the report.
type tally struct {
	attempted, failed int
	problems          []string
}

// fail records n failed or wrong operations.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

// e2e collects the untraced measurements of one run.
type e2e struct {
	tally
	start     time.Time
	ops       []opTime // completed operations
	decisions int
	latMS     []float64 // per-operation latency
	cheapMS   []float64 // serve-mixed: latency of the benign class; nil elsewhere
	lateMS    []float64 // open-loop generator lateness
}

// opTime is one completed operation: its run time, in nanoseconds since
// the measured phase began, and the correct decisions it made.
type opTime struct {
	start, end int64
	n          int
}

// done records an operation that ran from t0 until now and made n correct
// decisions.
func (m *e2e) done(t0 time.Time, n int) {
	m.decisions += n
	m.ops = append(m.ops, opTime{t0.Sub(m.start).Nanoseconds(), time.Since(m.start).Nanoseconds(), n})
}

// throughputWindows is how many equal windows the measured phase is cut
// into; decisions_per_s is the median of their rates, so a burst of
// interference from outside the program moves one window, not the result.
const throughputWindows = 10

// rate returns the median over throughputWindows windows of the decisions
// per second completed in each, spreading each operation's decisions evenly
// over its run time.
func (m *e2e) rate() float64 {
	if len(m.ops) == 0 {
		return 0
	}
	lo, hi := m.ops[0].start, m.ops[0].end
	for _, op := range m.ops {
		lo, hi = min(lo, op.start), max(hi, op.end)
	}
	width := float64(hi-lo) / throughputWindows
	per := make([]float64, throughputWindows)
	for _, op := range m.ops {
		dur := float64(op.end - op.start)
		for i := range per {
			wlo := float64(lo) + float64(i)*width
			overlap := min(float64(op.end), wlo+width) - max(float64(op.start), wlo)
			if overlap > 0 && dur > 0 {
				per[i] += float64(op.n) * overlap / dur
			}
		}
	}
	for i := range per {
		per[i] /= width / float64(time.Second)
	}
	return median(per)
}

// passStats collects the results of one fixed pass. det holds the counts
// that must repeat exactly for a fixed seed.
type passStats struct {
	tally
	decisions int
	det       map[string]float64
}

func newPassStats() *passStats { return &passStats{det: make(map[string]float64)} }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured; the last line of standard output
// is its summary, and the whole report is stored under outDir.
type report struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       int                `json:"seconds"`
	Trace         int                `json:"trace"`
	Host          host               `json:"host"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	ErrorRate     float64            `json:"error_rate"`
	Problems      []string           `json:"problems,omitempty"`
	Metrics       map[string]metric  `json:"metrics"`
	Samples       map[string]int     `json:"samples,omitempty"`
	Extra         map[string]float64 `json:"extra,omitempty"`
	Deterministic map[string]float64 `json:"deterministic,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mc-faulty, mc-batched, session-lib or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", sortedKeys(workloads))
		return 2
	}
	rep := &report{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Host: fingerprint(), Metrics: make(map[string]metric),
	}
	var err error
	if *trace == 0 {
		err = runUntraced(mk, rep)
	} else {
		err = runTraced(mk, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	rep.ErrorRate = ratio(float64(rep.Failed), float64(rep.Attempted))
	path, werr := saveReport(rep)
	if werr != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", werr)
		return 1
	}
	printSummary(stdout, rep, path)
	line, _ := json.Marshal(result{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "e2ebench: %s\n", p)
		}
		return 1
	}
	return 0
}

// runUntraced times setupReps cold set-ups, keeps the last, and measures
// the end-to-end phase on it with tracing off.
func runUntraced(mk func() workload, rep *report) error {
	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		w = mk()
		t0 := time.Now()
		if err := w.setup(rep.Seed, nil); err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	runtime.GC()
	m := e2e{start: time.Now()}
	if err := w.measure(time.Duration(rep.Seconds)*time.Second, &m); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	rep.Attempted, rep.Failed, rep.Problems = m.attempted, m.failed, m.problems
	if m.decisions == 0 || len(m.latMS) == 0 {
		rep.Problems = append(rep.Problems, "no operation completed")
		return nil
	}
	// cheap_latency_p99_ms is defined for serve-mixed's benign class; the
	// other workloads report their p99 under that name.
	cheap := m.cheapMS
	if cheap == nil {
		cheap = m.latMS
	}
	vals := map[string]float64{
		"decisions_per_s":      m.rate(),
		"latency_p50_ms":       quantile(m.latMS, 0.50),
		"latency_p99_ms":       quantile(m.latMS, 0.99),
		"cheap_latency_p99_ms": quantile(cheap, 0.99),
		"setup_s":              median(setups),
		"peak_rss_mb":          peakRSSMB(),
	}
	for _, em := range endToEndMetrics {
		rep.Metrics[em.name] = metric{vals[em.name], em.unit}
	}
	rep.Samples = map[string]int{"latency": len(m.latMS), "cheap_latency": len(cheap), "setup": len(setups)}
	if len(m.lateMS) > 0 {
		rep.Samples["loadgen"] = len(m.lateMS)
		lateP99, lateMax := quantile(m.lateMS, 0.99), slices.Max(m.lateMS)
		rep.Extra = map[string]float64{
			"loadgen.late_p50_ms": quantile(m.lateMS, 0.5), "loadgen.late_p90_ms": quantile(m.lateMS, 0.9),
			"loadgen.late_p99_ms": lateP99, "loadgen.late_max_ms": lateMax,
		}
		if lateP99 > maxLateP99MS || lateMax > maxLateMaxMS {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"open loop invalid: generator ran late (p99 %.2f ms, max %.2f ms; limits %v / %v ms)",
				lateP99, lateMax, maxLateP99MS, maxLateMaxMS))
		}
	}
	return nil
}

// runTraced builds the workload once and runs its fixed pass three times:
// a warm-up, an untraced pass and a traced pass. The deterministic counts
// of all three must agree, and the traced pass must take the same replay
// tiers as the untraced one (identical plan counters).
func runTraced(mk func() workload, rep *report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tr := newTracer()
	w := mk()
	defer w.close()
	c0 := readCounters()
	if err := w.setup(rep.Seed, tr); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setup := readCounters().sub(c0)
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	onePass := func(t *tracer) (*passStats, counters, time.Duration, error) {
		p := newPassStats()
		runtime.GC()
		before := readCounters()
		id := t.begin("pass", 0)
		start := time.Now()
		err := w.pass(t, id, p)
		el := time.Since(start)
		t.end(id)
		return p, readCounters().sub(before), el, err
	}
	warm, warmC, _, err := onePass(nil)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	plain, plainC, plainT, err := onePass(nil)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	traced, tracedC, tracedT, err := onePass(tr)
	layers := make(map[string]float64)
	if lt, ok := w.(loadTracer); ok && err == nil {
		err = lt.traceLoad(tr, time.Duration(rep.Seconds)*time.Second/2, layers, traced)
	}
	shares, perr := prof.stop(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-cpu.pprof", rep.Workload, rep.Seed)))
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if perr != nil {
		return perr
	}

	var all tally
	for _, p := range []*passStats{warm, plain, traced} {
		all.add(p.tally)
	}
	rep.Attempted, rep.Failed, rep.Problems = all.attempted, all.failed, all.problems
	// The flood session and churn counts join each pass's own
	// deterministic counts; all of them must repeat exactly.
	for _, p := range []struct {
		s *passStats
		c counters
	}{{warm, warmC}, {plain, plainC}, {traced, tracedC}} {
		p.s.det["flood.replay_sessions"] = float64(p.c.plan.ReplaySessions)
		p.s.det["flood.delta_sessions"] = float64(p.c.plan.DeltaReplaySessions)
		p.s.det["flood.dynamic_sessions"] = float64(p.c.plan.DynamicSessions)
		p.s.det["faultinject.churn_events"] = float64(p.c.churnEvents)
		p.s.det["faultinject.plan_invalidations"] = float64(p.c.invalid)
	}
	for name, p := range map[string]*passStats{"warm-up": warm, "traced": traced} {
		for _, k := range sortedKeys(plain.det) {
			if p.det[k] != plain.det[k] {
				rep.Problems = append(rep.Problems, fmt.Sprintf(
					"count drift: %s is %v in the %s pass, %v in the untraced pass", k, p.det[k], name, plain.det[k]))
			}
		}
	}
	if tracedC.plan != plainC.plan {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"traced pass took other replay tiers: plan counters %+v traced, %+v untraced", tracedC.plan, plainC.plan))
	}
	rep.Deterministic = plain.det

	dec := float64(plain.decisions)
	ps := plainC.plan
	layers["flood.compiles"] = float64(setup.plan.Compiles)
	layers["flood.masked_compiles"] = float64(setup.plan.MaskedCompiles)
	layers["flood.replay_sessions"] = ratio(float64(ps.ReplaySessions), dec)
	layers["flood.delta_sessions"] = ratio(float64(ps.DeltaReplaySessions), dec)
	layers["flood.dynamic_sessions"] = ratio(float64(ps.DynamicSessions), dec)
	layers["flood.replay_hit_rate"] = ratio(float64(ps.ReplaySessions+ps.DeltaReplaySessions),
		float64(ps.ReplaySessions+ps.DeltaReplaySessions+ps.DynamicSessions))
	layers["adversary.reuses"] = ratio(float64(plainC.reuses), dec)
	layers["eval.trial_pool_hits"] = ratio(float64(plainC.trialHits), dec)
	layers["eval.run_pool_hit_rate"] = ratio(float64(plainC.runPoolHits), float64(plainC.runPoolHits+plainC.runPoolMis))
	layers["eval.allocs_per_decision"] = ratio(float64(plainC.mallocs), dec)
	layers["faultinject.churn_events"] = ratio(float64(plainC.churnEvents), dec)
	layers["faultinject.plan_invalidations"] = ratio(float64(plainC.invalid), dec)
	for k, v := range plain.det {
		if _, ok := layers[k]; !ok && isLayerMetric(k) {
			layers[k] = v
		}
	}
	for _, layer := range cpuLayers {
		layers[layer+".cpu_share"] = shares[layer]
	}
	layers["runtime.gc_cpu_share"] = shares["runtime.gc"]
	layers["graph.analysis_ms"] = sum(tr.durations("graph.analysis")) / 1e3
	layers["flood.compile_ms"] = sum(tr.durations("flood.compile")) / 1e3
	layers["flood.masked_compile_ms"] = mean(tr.durations("flood.masked_compile")) / 1e3
	layers["flood.delta_compile_ms"] = mean(tr.durations("flood.delta_compile")) / 1e3
	if steps := tr.durations("adversary.Step"); len(steps) > 0 {
		layers["adversary.step_us_p50"] = quantile(steps, 0.5)
		layers["adversary.step_us_p99"] = quantile(steps, 0.99)
	}
	layers["trace.overhead_ratio"] = ratio(tracedT.Seconds(), plainT.Seconds())
	for _, m := range perLayerMetrics {
		rep.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return tr.write(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", rep.Workload, rep.Seed)))
}

// endToEndMetrics lists the metrics an untraced run prints.
var endToEndMetrics = []struct{ name, unit string }{
	{"decisions_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cheap_latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// cpuLayers are the lbcast/internal modules whose CPU share is reported.
var cpuLayers = []string{"flood", "core", "adversary", "sim", "eval", "server", "faultinject", "graph"}

// perLayerMetrics lists, in order, the metrics a traced run prints. A
// metric that does not apply to a workload reads 0 (README.md lists which
// apply where).
var perLayerMetrics = []struct{ name, unit string }{
	{"graph.analysis_ms", "ms"},
	{"flood.compile_ms", "ms"},
	{"flood.masked_compile_ms", "ms"},
	{"flood.delta_compile_ms", "ms"},
	{"flood.compiles", "count"},
	{"flood.masked_compiles", "count"},
	{"flood.replay_sessions", "count"},
	{"flood.delta_sessions", "count"},
	{"flood.dynamic_sessions", "count"},
	{"flood.replay_hit_rate", "ratio"},
	{"flood.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"adversary.cpu_share", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"eval.cpu_share", "ratio"},
	{"server.cpu_share", "ratio"},
	{"faultinject.cpu_share", "ratio"},
	{"graph.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"adversary.step_us_p50", "us"},
	{"adversary.step_us_p99", "us"},
	{"adversary.reuses", "count"},
	{"eval.trial_pool_hits", "count"},
	{"eval.run_pool_hit_rate", "ratio"},
	{"eval.allocs_per_decision", "count"},
	{"eval.degraded_per_trial", "ratio"},
	{"faultinject.churn_events", "count"},
	{"faultinject.plan_invalidations", "count"},
	{"sim.rounds_per_decision", "count"},
	{"sim.transmissions_per_decision", "count"},
	{"sim.deliveries_per_decision", "count"},
	{"server.wait_ms_p50", "ms"},
	{"server.wait_ms_p99", "ms"},
	{"server.service_ms_p50", "ms"},
	{"server.service_ms_p99", "ms"},
	{"server.batch_size_mean", "count"},
	{"server.queue_depth_max", "count"},
	{"server.rejected", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

func isLayerMetric(name string) bool {
	return slices.ContainsFunc(perLayerMetrics, func(m struct{ name, unit string }) bool { return m.name == name })
}

// saveReport writes the full report under outDir and returns its path.
func saveReport(rep *report) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// printSummary prints the human-readable part of the output: the host
// fingerprint, the error rate and every metric with its unit.
func printSummary(w io.Writer, rep *report, path string) {
	h := rep.Host
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "%s seed=%d trace=%d: attempted=%d failed=%d error_rate=%.4g correct=%v\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed, rep.ErrorRate, rep.Correct)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "report: %s\n", path)
}
