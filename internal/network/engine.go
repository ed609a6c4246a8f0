package network

import (
	"fmt"

	"crnet/internal/faults"
)

// Hooks is the single seam through which external machinery attaches to
// the cycle kernel. Everything that is not the network itself — the
// fault timeline, the invariant watchdog, the metrics sampler — plugs in
// here; the kernel consults each at one documented point of the step
// pipeline and nowhere else.
type Hooks struct {
	// Faults is the permanent-fault timeline, consulted once per cycle in
	// the fault-events phase. A nil Faults falls back to Config.Faults
	// (which may itself be nil: no permanent faults).
	Faults *faults.Schedule

	// Monitor runs after the phase pipeline, before the cycle counter
	// advances (it sees the network state at the end of cycle N with
	// Cycle() == N). Its first error latches the network unhealthy (see
	// Health); subsequent cycles skip it.
	Monitor Monitor

	// Observer runs last, after the cycle counter has advanced, with the
	// just-completed cycle number. Metric samplers hook in here: polled
	// gauges see the post-step state exactly as external callers polling
	// between Step calls would.
	Observer func(cycle int64)
}

// SetHooks installs the hook set, replacing any previous one. A nil
// Faults is substituted with Config.Faults so installing a monitor or
// observer never silently disables the configured fault timeline.
func (n *Network) SetHooks(h Hooks) {
	if h.Faults == nil {
		h.Faults = n.cfg.Faults
	}
	n.hooks = h
}

// enginePhase is one stage of the per-cycle kernel. run reports whether
// any flit made progress (moved across the switch or arrived over a
// link) — the signal feeding CyclesSinceProgress.
type enginePhase struct {
	name string
	run  func(*Network) bool
}

// pipeline is the cycle kernel's phase sequence — the authoritative,
// ordered statement of what one simulated cycle does. Determinism
// depends on this order and on every phase iterating its worklist in
// ascending (node, port) order; see the package comment for why signals
// precede arrivals.
var pipeline = [...]enginePhase{
	{"signals", func(n *Network) bool { n.phaseSignals(); return false }},
	{"arrivals", (*Network).phaseArrivals},
	{"fault-events", func(n *Network) bool { n.phaseFaultEvents(); return false }},
	{"injectors", func(n *Network) bool { n.phaseInjectors(); return false }},
	{"allocate", func(n *Network) bool { n.phaseAllocate(); return false }},
	{"transmit", (*Network).phaseTransmit},
	{"fkills", func(n *Network) bool { n.phaseFKills(); return false }},
	{"credits", func(n *Network) bool { n.phaseCredits(); return false }},
}

// Step advances the simulation one cycle: the phase pipeline, invariant
// checks (Config.Check), the Monitor hook, the cycle increment, and the
// Observer hook, in that order. With Config.Shards > 1 the pipeline
// runs sharded (see shard.go) with byte-identical results; the
// brute-force reference flag always selects the serial kernel.
//
//cr:hotpath cycle-kernel entry point; zero-alloc steady state (TestSteadyStateZeroAlloc)
func (n *Network) Step() {
	if n.shards != nil && !n.bruteForce {
		n.finishStep(n.stepSharded())
		return
	}
	progressed := false
	for i := range pipeline {
		if pipeline[i].run(n) {
			progressed = true
		}
	}
	n.finishStep(progressed)
}

// finishStep is the per-cycle epilogue shared by the serial and sharded
// kernels: the progress clock, invariant checks, the Monitor hook, the
// cycle increment, and the Observer hook.
//
//cr:hotpath per-cycle epilogue of both kernels
func (n *Network) finishStep(progressed bool) {
	if progressed {
		n.lastProgress = n.cycle
	}
	if n.cfg.Check {
		// Only the routers a mutating method touched since the last
		// check are checked: every other router still holds the state
		// that passed then.
		n.checkDirty(&n.sink)
		for i := range n.shards {
			n.checkDirty(&n.shards[i].sink)
		}
	}
	if n.hooks.Monitor != nil && n.health == nil {
		if err := n.hooks.Monitor.AfterStep(n); err != nil {
			n.health = err
		}
	}
	n.cycle++
	if n.hooks.Observer != nil {
		n.hooks.Observer(n.cycle - 1)
	}
}

// checkDirty checks and clears every router on sk's dirty list, then
// empties the list. A violation panics: the simulation state is no
// longer trustworthy.
//
//cr:hotpath the Config.Check loop, once per context per cycle
func (n *Network) checkDirty(sk *sink) {
	for _, r := range sk.dirty {
		r.ClearDirty()
		if err := r.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("cycle %d: %v", n.cycle, err))
		}
	}
	sk.dirty = sk.dirty[:0]
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// PhaseNames returns the pipeline's phase names in execution order, for
// documentation and tooling.
func PhaseNames() []string {
	out := make([]string, len(pipeline))
	for i, p := range pipeline {
		out[i] = p.name
	}
	return out
}
