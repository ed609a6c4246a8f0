package network

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// dirtyPin steps a Config.Check network like Step, and between the
// phase pipeline and the check epilogue asserts that dirty tracking is
// complete: every constructed router that is not on a dirty list
// encodes (SaveState) to the same bytes as at the previous cycle, and
// no router is listed twice. Since finishStep checks only the listed
// routers, this is what makes the incremental check as strong as
// checking every router every cycle.
type dirtyPin struct {
	prev [][]byte // per node: the router's encoding at the last cycle; nil before construction
}

func (p *dirtyPin) step(t *testing.T, n *Network) {
	t.Helper()
	var progressed bool
	if n.shards != nil {
		progressed = n.stepSharded()
	} else {
		for i := range pipeline {
			if pipeline[i].run(n) {
				progressed = true
			}
		}
	}
	listed := dirtyListed(t, n)
	for id, r := range n.routers {
		if r == nil {
			continue
		}
		var e snapshot.Encoder
		r.SaveState(&e)
		if !listed[r] && p.prev[id] != nil && !bytes.Equal(e.Bytes(), p.prev[id]) {
			t.Fatalf("cycle %d: router %d changed state without a dirty mark", n.cycle, id)
		}
		p.prev[id] = e.Bytes()
	}
	n.finishStep(progressed)
}

// dirtyListed returns the routers on n's dirty lists, failing the test
// if one is listed twice.
func dirtyListed(t *testing.T, n *Network) map[*router.Router]bool {
	t.Helper()
	listed := map[*router.Router]bool{}
	add := func(sk *sink) {
		for _, r := range sk.dirty {
			if listed[r] {
				t.Fatalf("cycle %d: router %d listed twice", n.cycle, r.ID())
			}
			listed[r] = true
		}
	}
	add(&n.sink)
	for i := range n.shards {
		add(&n.shards[i].sink)
	}
	return listed
}

// TestDirtyTrackingComplete pins dirty-tracking completeness over the
// fault soak's random configurations (transient corruption plus a
// fail/repair timeline), in all three buffer organizations, on the
// serial kernel and at two shards.
func TestDirtyTrackingComplete(t *testing.T) {
	for _, tc := range faultSoakCases() {
		for _, org := range router.BufferOrgs {
			for _, shards := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/%s/shards%d", tc.name, org, shards), func(t *testing.T) {
					c := tc.cfg
					c.Check = true
					c.BufOrg = org
					c.Shards = shards
					c.Faults = faults.RandomTimeline(tc.timeline)
					n := New(c)
					gen := traffic.NewGenerator(c.Topo, traffic.Uniform{Nodes: c.Topo.Nodes()}, tc.load, tc.msgLen, c.Seed+5)
					pin := dirtyPin{prev: make([][]byte, c.Topo.Nodes())}
					// Traffic, then a drain; the timeline's fail/repair
					// events fall on both sides of the traffic cutoff.
					const trafficCycles, cycles = 800, 2000
					for cyc := int64(0); cyc < cycles; cyc++ {
						if cyc < trafficCycles {
							for node := 0; node < c.Topo.Nodes(); node++ {
								if m, ok := gen.Tick(topology.NodeID(node), cyc); ok {
									n.SubmitMessage(m)
								}
							}
						}
						pin.step(t, n)
						n.DrainDeliveries()
					}
					if n.RouterStats().FlitsMoved == 0 {
						t.Fatal("no flit moved; the pin is vacuous")
					}
				})
			}
		}
	}
}

// TestCheckCatchesPlantedViolation: a violation planted in a router
// that is otherwise idle, through a mutating method called between
// steps, is caught by the next cycle's check — the method's dirty mark
// alone puts the router on the check list.
func TestCheckCatchesPlantedViolation(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			n := New(Config{
				Topo:     topology.NewTorus(4, 2),
				Alg:      routing.MinimalAdaptive{},
				Protocol: core.CR,
				BufOrg:   router.OrgDAMQ,
				Shards:   shards,
				Check:    true,
			})
			r := n.routerAt(5)
			n.Step() // checks the fresh router
			n.Step()
			if len(dirtyListed(t, n)) != 0 {
				t.Fatal("dirty lists not empty after a checked cycle")
			}
			// One credit above the window: DAMQ's ApplyCredit has no
			// inline overflow guard, so only the end-of-cycle check can
			// see it.
			r.ApplyCredit(0, 0, 1, 0)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "router 5: output (0,0) credit") {
					t.Fatalf("next cycle's check did not catch the planted violation; recovered %q", msg)
				}
			}()
			n.Step()
		})
	}
}
