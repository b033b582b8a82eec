package eval

import (
	"runtime"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// TestSessionStepping drives session runs round by round and checks the
// engine's stepping rule against each round's predecessor: round 0 and
// rounds after quiet ones (< 100 routed deliveries) step sequentially,
// rounds after busy ones (>= 1000) on the worker pool. A replayed figure1a
// session routes at most 20 deliveries a round, so it never starts the
// pool; a replayed figure1b session does, because the rule counts the
// deliveries its replaying nodes never read; so do Algorithm 2's floods.
func TestSessionStepping(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	fig1a, fig1b := gen.Figure1a(), gen.Figure1b()
	tamper := map[graph.NodeID]sim.Node{3: adversary.NewTamper(fig1b, 3, core.PhaseRounds(fig1b.N()), 5)}
	cases := []struct {
		name     string
		spec     Spec
		mode     replayMode
		parallel bool
	}{
		{"figure1a-replayed", Spec{G: fig1a, F: 1}, replayFull, false},
		{"figure1b-replayed", Spec{G: fig1b, F: 2}, replayFull, true},
		{"figure1b-algo2-tamper", Spec{G: fig1b, F: 2, Algorithm: Algo2, Byzantine: tamper}, replayOff, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Inputs = churnInputs(tc.spec.G.N(), 0)
			sess, err := NewSession(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			run, err := newSessionRun(sess.topo, sess.spec, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			defer run.eng.Close()
			eng, prevRouted := run.eng, 0
			for r := 0; r < sess.spec.DefaultRounds() && !eng.AllDecided(run.honest); r++ {
				before, par := eng.Metrics().Deliveries, eng.ParallelRounds()
				eng.Step()
				parallel := eng.ParallelRounds() > par
				if (r == 0 || prevRouted < 100) && parallel || prevRouted >= 1000 && !parallel {
					t.Fatalf("round %d after %d routed deliveries: parallel=%v", r, prevRouted, parallel)
				}
				prevRouted = eng.Metrics().Deliveries - before
			}
			// The pool starts at the first parallel round, so zero
			// parallel rounds on a fresh engine means no goroutine started.
			if got := eng.ParallelRounds() > 0; got != tc.parallel {
				t.Fatalf("%d rounds stepped on the pool, want parallel=%v", eng.ParallelRounds(), tc.parallel)
			}
		})
	}
}
