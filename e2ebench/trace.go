package main

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"lbcast/internal/adversary"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// span is one timed interval recorded by the benchmark around a call into
// the program. Parent is the id of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one branch per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations, in microseconds, of every closed span
// called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
				continue
			}
			curHi = max(curHi, hi)
		}
		covered += curHi - curLo
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write stores the spans and their per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms_by_name"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedNode wraps an adversary so that each Step is a span. It forwards the
// optional capabilities the execution tiers test for (crash-from-start,
// inbox ignoring, reset): a decorator that hid them would silently move the
// run to another replay tier, which the traced-run integrity check reports.
type timedNode struct {
	inner  sim.Node
	tr     *tracer
	parent int
}

func (n *timedNode) ID() graph.NodeID { return n.inner.ID() }

func (n *timedNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	id := n.tr.begin("adversary.Step", n.parent)
	out := n.inner.Step(round, inbox)
	n.tr.end(id)
	return out
}

func (n *timedNode) CrashedFromStart() bool {
	c, ok := n.inner.(interface{ CrashedFromStart() bool })
	return ok && c.CrashedFromStart()
}

func (n *timedNode) IgnoresInbox() bool {
	ig, ok := n.inner.(sim.InboxIgnorer)
	return ok && ig.IgnoresInbox()
}

func (n *timedNode) Reset(seed int64) {
	if r, ok := n.inner.(adversary.Resettable); ok {
		r.Reset(seed)
	}
}

// counters is a snapshot of the program's process-wide counter readers and
// the allocator's malloc count.
type counters struct {
	plan                    flood.PlanStats
	runPoolHits, runPoolMis uint64
	trialHits               uint64
	churnEvents, invalid    uint64
	reuses                  uint64
	mallocs                 uint64
}

func readCounters() counters {
	var c counters
	c.plan = flood.ReadPlanStats()
	c.runPoolHits, c.runPoolMis = eval.ReadPoolStats()
	c.trialHits, _ = eval.ReadTrialPoolStats()
	c.churnEvents, c.invalid = eval.ReadChurnStats()
	c.reuses = adversary.ReadRecycleStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

// sub returns the counter deltas c - b.
func (c counters) sub(b counters) counters {
	return counters{
		plan: flood.PlanStats{
			Compiles:            c.plan.Compiles - b.plan.Compiles,
			MaskedCompiles:      c.plan.MaskedCompiles - b.plan.MaskedCompiles,
			ReplaySessions:      c.plan.ReplaySessions - b.plan.ReplaySessions,
			DeltaReplaySessions: c.plan.DeltaReplaySessions - b.plan.DeltaReplaySessions,
			DynamicSessions:     c.plan.DynamicSessions - b.plan.DynamicSessions,
		},
		runPoolHits: c.runPoolHits - b.runPoolHits,
		runPoolMis:  c.runPoolMis - b.runPoolMis,
		trialHits:   c.trialHits - b.trialHits,
		churnEvents: c.churnEvents - b.churnEvents,
		invalid:     c.invalid - b.invalid,
		reuses:      c.reuses - b.reuses,
		mallocs:     c.mallocs - b.mallocs,
	}
}
