package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crnet/internal/network"
	"crnet/internal/sim"
	"crnet/internal/snapshot"
	"crnet/internal/traffic"
)

// simWorkload is a workload made of whole sim.RunWithNetwork runs on
// one configuration. After each run the benchmark checkpoints the
// final network and restores it into a fresh one, so the checkpoint
// metrics exist for every network size.
type simWorkload struct {
	config func(seed uint64) sim.Config
	// drained means the run ends only once every window message is
	// delivered (Censored must be 0).
	drained bool
}

// tripsPerRun is the number of checkpoint round trips after each run,
// on that run's final network. A round trip of a 32x32 network takes
// about 10 ms; a few after every run spread the checkpoint samples over
// the whole budget, so they see the same mix of host states as the runs.
const tripsPerRun = 3

// buildsPerRun is the number of set-up samples taken before each run.
// One build of a 32x32 network and its generator takes about 0.2 ms.
const buildsPerRun = 5

// runOnce runs and digests one sim.RunWithNetwork call. The returned
// wall time covers the call alone, not the digest.
func (s simWorkload) runOnce(cfg sim.Config) (string, *network.Network, time.Duration, error) {
	var (
		m   sim.Metrics
		net *network.Network
	)
	start := time.Now()
	err := safely(func() error {
		var err error
		m, net, err = sim.RunWithNetwork(cfg)
		return err
	})
	wall := time.Since(start)
	if err != nil {
		return "", nil, wall, err
	}
	d, err := s.digest(m, net)
	return d, net, wall, err
}

// digest checks the run's plain invariants and hashes its metrics and
// work counters.
func (s simWorkload) digest(m sim.Metrics, net *network.Network) (string, error) {
	switch {
	case m.Delivered == 0:
		return "", fmt.Errorf("no window message delivered")
	case m.DeliveredCorrupt != 0 || m.FailedMessages != 0 || m.OrderErrors != 0 || m.LateFKills != 0:
		return "", fmt.Errorf("integrity: corrupt=%d failed=%d order=%d late_fkills=%d",
			m.DeliveredCorrupt, m.FailedMessages, m.OrderErrors, m.LateFKills)
	case s.drained && m.Censored != 0:
		return "", fmt.Errorf("drain ended with %d undelivered window messages", m.Censored)
	}
	return digest(m, readCounters(net))
}

func (s simWorkload) reference(seed uint64) (string, error) {
	d, _, _, err := s.runOnce(s.config(seed))
	return d, err
}

// build is the workload's set-up: the network plus its traffic source.
func build(cfg sim.Config) error {
	net := network.New(cfg.Net)
	pattern, err := traffic.ByName(cfg.Pattern, net.Topology())
	if err != nil {
		return err
	}
	traffic.NewGeneratorLengths(net.Topology(), pattern, cfg.Load, traffic.FixedLength(cfg.MsgLen), cfg.Seed)
	return nil
}

// measure is the untraced run: until the budget is spent, set-up
// samples, one whole run, and checkpoint round trips on that run's
// final network, with a calibration pass after the run and after the
// round trips. Peak memory is each run's own, so it is the memory of
// stepping.
func (s simWorkload) measure(b *bench) error {
	cfg := s.config(b.seed)
	b.calibrate()
	deadline := time.Now().Add(b.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := b.setup(buildsPerRun, func() error { return build(cfg) }); err != nil {
			return err
		}
		startRun()
		d, net, wall, err := s.runOnce(cfg)
		b.op(fmt.Sprintf("run %d", i), d, err)
		if err != nil {
			continue
		}
		b.timing("ns_per_cycle", "ns", float64(wall.Nanoseconds())/float64(net.Cycle()))
		b.record("peak_rss_mb", "MB", runPeakMB()-b.cal.mb())
		b.calibrate()
		for r := 0; r < tripsPerRun; r++ {
			b.check(fmt.Sprintf("run %d checkpoint %d", i, r), checkpointNetwork(b, cfg.Net, net, nil))
		}
		b.calibrate()
	}
	s.crossCheck(b, cfg)
	return nil
}

// crossCheck confirms an unpinned seed's reference digest, which came
// from the serial kernel, with one run on the sharded kernel. By the
// network's determinism contract the two are byte-identical.
func (s simWorkload) crossCheck(b *bench, cfg sim.Config) {
	if b.pinned != "" {
		return
	}
	cfg.Net.Shards = 2
	d, _, _, err := s.runOnce(cfg)
	b.op("cross-check run on two shards", d, err)
}

// traced is the per-layer run: untraced RunWithNetwork runs alternate
// with traced mirror runs until the budget is spent. Every mirror run
// must reproduce the reference digest.
func (s simWorkload) traced(b *bench) error {
	cfg := s.config(b.seed)
	tr := newTracer()
	var untraced, traced []float64
	var cycles int64
	deadline := time.Now().Add(b.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		d, net, wall, err := s.runOnce(cfg)
		b.op(fmt.Sprintf("run %d", i), d, err)
		if err == nil {
			untraced = append(untraced, float64(wall.Nanoseconds())/float64(net.Cycle()))
		}

		var m sim.Metrics
		before := readMem()
		start := time.Now()
		err = safely(func() error {
			var err error
			m, net, err = mirrorRun(cfg, tr)
			return err
		})
		wall = time.Since(start)
		after := readMem()
		if err == nil {
			d, err = s.digest(m, net)
		}
		b.op(fmt.Sprintf("traced run %d", i), d, err)
		if err != nil {
			continue
		}
		cycles += net.Cycle()
		traced = append(traced, float64(wall.Nanoseconds())/float64(net.Cycle()))
		recordGo(b, before, after, net.Cycle())
		readCounters(net).record(b)
		b.record("status_us", "us", statusMicros(func() {
			net.RouterStats()
			net.InjectorStats()
			net.ReceiverStats()
		}))
		for r := 0; r < tripsPerRun; r++ {
			b.check(fmt.Sprintf("traced run %d checkpoint %d", i, r), checkpointNetwork(b, cfg.Net, net, tr))
		}
	}
	if cycles == 0 {
		return writeSpans(b, tr)
	}
	perCycle := func(name string) float64 { return float64(tr.total(name).Nanoseconds()) / float64(cycles) }
	b.record("traffic.tick_ns_per_cycle", "ns", perCycle("traffic.tick"))
	b.record("network.submit_ns_per_cycle", "ns", perCycle("network.submit"))
	b.record("network.step_ns_per_cycle", "ns", perCycle("network.step"))
	b.record("network.drain_ns_per_cycle", "ns", perCycle("network.drain"))
	b.record("driver.account_ns_per_cycle", "ns", perCycle("driver.account"))
	b.record("network.step_ns_per_flit_move", "ns", stepPerFlitMove(tr.total("network.step"), b))
	// The sim.Service layers are not on this workload's path.
	b.record("sim.step_ns_per_cycle", "ns", 0)
	b.record("obs.scrape_us", "us", 0)
	b.record("trace_overhead_frac", "frac", median(traced)/median(untraced)-1)
	b.record("span_coverage_frac", "frac", tr.coverage("op"))
	return writeSpans(b, tr)
}

// stepPerFlitMove divides the traced step time by the flits the
// routers moved over the traced runs.
func stepPerFlitMove(step time.Duration, b *bench) float64 {
	moves := 0.0
	for _, v := range b.samples["router.flits_moved"] {
		moves += v
	}
	if moves == 0 {
		return 0
	}
	return float64(step.Nanoseconds()) / moves
}

// checkpointNetwork saves net, writes and reads the checkpoint file,
// and restores it into a fresh network. The restored network must save
// to the same bytes, and both must stay identical over a few more
// cycles. With a tracer each call gets a span; otherwise the save and
// restore times are recorded as end-to-end samples.
func checkpointNetwork(b *bench, cfg network.Config, net *network.Network, tr *tracer) error {
	path := filepath.Join(b.dir, snapshot.FileName(net.Cycle()))
	defer os.Remove(path)
	runtime.GC() // no collection owed by earlier work lands inside the timing
	t := []time.Time{time.Now()}
	mark := func() { t = append(t, time.Now()) }

	var e snapshot.Encoder
	net.SaveState(&e)
	payload := e.Bytes()
	mark()
	if err := snapshot.WriteFile(path, net.Cycle(), payload); err != nil {
		return err
	}
	mark()
	_, got, err := snapshot.ReadFile(path)
	if err != nil {
		return err
	}
	mark()
	var fresh *network.Network
	if err := safely(func() error { fresh = network.New(cfg); return nil }); err != nil {
		return err
	}
	mark()
	d := snapshot.NewDecoder(got)
	if err := fresh.LoadState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	mark()

	if err := recordCheckpoint(b, tr, -1, t, path, len(payload), networkSteps); err != nil {
		return err
	}
	return sameContinuation(net, fresh, payload)
}

// networkSteps name the five timed steps of a network round trip.
var networkSteps = [5]string{"network.save", "snapshot.encode_write", "snapshot.read_decode", "network.new", "network.restore"}

// recordCheckpoint records one round trip timed at the six instants t
// (save, write, read, rebuild and restore in between). Without a tracer
// it records the end-to-end save and restore times and the checkpoint
// file size; with one it records each step as a per-layer metric and a
// span under parent, named by steps.
func recordCheckpoint(b *bench, tr *tracer, parent int32, t []time.Time, path string, payloadLen int, steps [5]string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	ms := func(i int) float64 { return float64(t[i+1].Sub(t[i]).Nanoseconds()) / 1e6 }
	if tr == nil {
		b.timing("ckpt_save_ms", "ms", ms(0)+ms(1))
		b.timing("ckpt_restore_ms", "ms", ms(2)+ms(3)+ms(4))
		b.record("ckpt_bytes", "bytes", float64(info.Size()))
		return nil
	}
	for i, name := range []string{"ckpt.save_ms", "snapshot.encode_write_ms", "snapshot.read_decode_ms", "ckpt.rebuild_ms", "ckpt.restore_ms"} {
		b.record(name, "ms", ms(i))
	}
	b.record("snapshot.payload_bytes", "bytes", float64(payloadLen))
	root := tr.add(tr.id("checkpoint"), parent, t[0].Sub(tr.epoch), t[5].Sub(tr.epoch))
	for i, name := range steps {
		tr.add(tr.id(name), root, t[i].Sub(tr.epoch), t[i+1].Sub(tr.epoch))
	}
	return nil
}

// continuationCycles is how long a restored network is stepped beside
// the original before their states are compared again.
const continuationCycles = 8

// sameContinuation checks that a restored network saves to the original
// payload and stays identical to the original over a few more cycles.
func sameContinuation(orig, restored *network.Network, payload []byte) error {
	if got := saveBytes(restored); !bytes.Equal(got, payload) {
		return fmt.Errorf("restored network saves to %d bytes differing from the %d-byte checkpoint", len(got), len(payload))
	}
	for i := 0; i < continuationCycles; i++ {
		orig.Step()
		restored.Step()
		orig.DrainDeliveries()
		restored.DrainDeliveries()
	}
	if !bytes.Equal(saveBytes(orig), saveBytes(restored)) {
		return fmt.Errorf("restored network diverged from the original within %d cycles", continuationCycles)
	}
	return nil
}

func saveBytes(net *network.Network) []byte {
	var e snapshot.Encoder
	net.SaveState(&e)
	return e.Bytes()
}

// statusMicros is the median time of one status read, in microseconds.
func statusMicros(read func()) float64 {
	const reps = 21
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		read()
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(times)
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// recordGo records the Go runtime's allocation and collection work
// between two memory readings that bracket cycles simulated cycles.
func recordGo(b *bench, before, after runtime.MemStats, cycles int64) {
	b.record("go.allocs_per_cycle", "count", float64(after.Mallocs-before.Mallocs)/float64(cycles))
	b.record("go.gc_count", "count", float64(after.NumGC-before.NumGC))
	b.record("go.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

func writeSpans(b *bench, tr *tracer) error {
	return tr.write(filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d.csv", b.workload, b.seed)))
}
