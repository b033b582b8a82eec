package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"lbcast/internal/graph"
)

// gossipNode is a scripted node whose transmissions depend on the exact
// content and order of everything it has heard, so any stepping-induced
// difference in delivery shows in the trace. Every fourth round is quiet,
// so the stepping rule sees rounds on both sides of its threshold.
type gossipNode struct {
	me      graph.NodeID
	ignores bool // InboxIgnorer: exercises the skipped-delivery path
	digest  uint64
}

func (n *gossipNode) ID() graph.NodeID   { return n.me }
func (n *gossipNode) IgnoresInbox() bool { return n.ignores }

func (n *gossipNode) Step(round int, inbox []Delivery) []Outgoing {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", n.digest)
	for _, d := range inbox {
		fmt.Fprintf(h, "|%d:%s", d.From, d.Payload.Key())
	}
	n.digest = h.Sum64()
	if round%4 == 3 {
		return nil
	}
	out := make([]Outgoing, 1+(round+int(n.me))%3)
	for j := range out {
		out[j] = Outgoing{To: Broadcast, Payload: textPayload(fmt.Sprintf("%d/%d/%d/%x", n.me, round, j, n.digest))}
	}
	return out
}

// gossipEngine builds the scripted run on K12 (node 0 ignores its inbox),
// with GOMAXPROCS at least 2 for the test so the rule may choose the pool.
func gossipEngine(t *testing.T) (*Engine, []*gossipNode, *Recorder) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	g := graph.New(12)
	ns := make([]*gossipNode, g.N())
	nodes := make([]Node, g.N())
	for u := range ns {
		for v := u + 1; v < g.N(); v++ {
			if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
		ns[u] = &gossipNode{me: graph.NodeID(u), ignores: u == 0}
		nodes[u] = ns[u]
	}
	rec := &Recorder{}
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Observer: rec}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, ns, rec
}

// TestSteppingNeverAffectsResults runs the same scripted execution with
// every round stepped on the pool (threshold 0), every round stepped
// sequentially (threshold ∞), and under the engine's rule: transmission
// traces, Metrics and node state must be identical.
func TestSteppingNeverAffectsResults(t *testing.T) {
	var want []any
	for _, tc := range []struct{ threshold, parallelRounds int }{
		{0, 12},
		{math.MaxInt, 0},
		{parallelDeliveries, 9}, // all but rounds 0, 4 and 8: each follows a quiet round
	} {
		eng, ns, rec := gossipEngine(t)
		eng.parallelMin = tc.threshold
		eng.Run(12)
		if n := eng.ParallelRounds(); n != tc.parallelRounds {
			t.Errorf("threshold %d: %d rounds stepped on the pool, want %d", tc.threshold, n, tc.parallelRounds)
		}
		got := []any{rec.Transmissions(), eng.Metrics(), ns}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d diverges from all-parallel stepping", tc.threshold)
		}
	}
}

// TestSteppingRule pins the rule round by round: a round steps on the pool
// exactly when the previous round routed at least parallelDeliveries
// deliveries. Reset re-arms it, including the Sequential bit that pooled
// run state may switch between runs, and GOMAXPROCS 1 turns it off.
func TestSteppingRule(t *testing.T) {
	eng, _, _ := gossipEngine(t)
	check := func(sequential, off bool) {
		t.Helper()
		eng.Reset(nil, sequential)
		prev := 0
		for r := 0; r < 9; r++ {
			before, par := eng.Metrics().Deliveries, eng.ParallelRounds()
			eng.Step()
			want := !off && r > 0 && prev >= parallelDeliveries
			if got := eng.ParallelRounds() > par; got != want {
				t.Fatalf("sequential=%v round %d after %d routed deliveries: parallel=%v", sequential, r, prev, got)
			}
			prev = eng.Metrics().Deliveries - before
		}
	}
	check(false, false)
	check(true, true)
	check(false, false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check(false, true) // one P: every round steps sequentially
}
