package main

import (
	"sort"

	"crnet/internal/core"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/sim"
	"crnet/internal/topology"
)

// workloadRunner is one named workload.
type workloadRunner interface {
	// reference returns the digest of one plain operation at seed, the
	// value pins.json records.
	reference(seed uint64) (string, error)
	// measure is the untraced run behind the end-to-end metrics.
	measure(b *bench) error
	// traced is the traced run behind the per-layer metrics.
	traced(b *bench) error
}

// workloads are the benchmark's workloads. All are open loop in
// simulated time: offered load never depends on host speed. README.md
// says why each was chosen.
var workloads = map[string]workloadRunner{
	// Well below saturation (about 0.065 here): kills are rare, and the
	// driver loop is a large share of the host time.
	"light_k32": simWorkload{
		config:  func(seed uint64) sim.Config { return crRun(0.03, 500, 1500, 8000, seed) },
		drained: true,
	},
	// More than twice saturation with a bounded drain: full buffers,
	// blocked headers, kills and retries on every message.
	"saturated_k32": simWorkload{
		config: func(seed uint64) sim.Config { return crRun(0.15, 300, 600, 300, seed) },
	},
	// The crsimd engine: FCR with transient corruption, router invariant
	// checks, the metrics sampler and checkpoint round trips.
	"service_fcr_k32": serviceWorkload{
		k:          32,
		load:       0.03,
		msgLen:     16,
		traceSpan:  2000,
		batch:      256,
		batches:    12,
		ckptEvery:  2,
		faultRate:  1e-4,
		sampleEach: 100,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// crRun is a sim.Run configuration on the canonical CR network, a
// 32x32 torus: minimal-adaptive routing, one VC, 2-flit FIFO buffers,
// exponential backoff with gap 8, uniform traffic of 16-flit messages,
// the serial kernel. Every field is set explicitly, which the traced
// mirror loop requires.
func crRun(load float64, warmup, measure, drain int64, seed uint64) sim.Config {
	return sim.Config{
		Net: network.Config{
			Topo:     topology.NewTorus(32, 2),
			Alg:      routing.MinimalAdaptive{},
			Protocol: core.CR,
			VCs:      1,
			BufDepth: 2,
			Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			Seed:     seed,
		},
		Pattern:       "uniform",
		Load:          load,
		MsgLen:        16,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		DrainCycles:   drain,
		Seed:          seed,
	}
}
