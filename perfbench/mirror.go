package main

import (
	"errors"

	"crnet/internal/flit"
	"crnet/internal/network"
	"crnet/internal/obs"
	"crnet/internal/sim"
	"crnet/internal/stats"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// windowCounters are the monotone counters sim.RunWithNetwork diffs
// across the measurement window.
type windowCounters struct {
	kills, fkills, retries   int64
	dataFlits, padFlits      int64
	recvDataFlits            int64
	pds, misroutes, staleSig int64
}

func takeWindowCounters(net *network.Network) windowCounters {
	is, rs := net.InjectorStats(), net.RouterStats()
	return windowCounters{
		kills:         is.Kills,
		fkills:        is.FKills,
		retries:       is.Retries,
		dataFlits:     is.DataFlits,
		padFlits:      is.PadFlits,
		recvDataFlits: net.ReceiverStats().DataFlits,
		pds:           rs.PDS,
		misroutes:     rs.Misroutes,
		staleSig:      rs.StaleSignals,
	}
}

// mirrorRun repeats sim.RunWithNetwork's cycle loop and reduction with
// a span around each public call: traffic.Generator.Tick (with the
// window bookkeeping), Network.SubmitMessage, Network.Step,
// Network.DrainDeliveries and the latency accounting. It covers the
// configurations the workloads use — every field set explicitly, no
// watchdog, degrader, sampler or cancel channel — and its metrics must
// digest exactly like RunWithNetwork's, which every traced operation
// checks, so the traced run provably does the same work.
//
// One reordering: each cycle ticks every node's generator first and
// submits the offered messages afterwards, so generation and submission
// get separate spans. The generator never reads the network, and the
// submissions keep their node order, so the simulated run is unchanged.
func mirrorRun(cfg sim.Config, tr *tracer) (sim.Metrics, *network.Network, error) {
	if cfg.Watchdog != nil || cfg.Cancel != nil || cfg.Degrade != nil || cfg.SampleEvery > 0 ||
		cfg.Lengths != nil || cfg.WarmupCycles <= 0 || cfg.MeasureCycles <= 0 || cfg.DrainCycles <= 0 {
		return sim.Metrics{}, nil, errors.New("mirror: configuration outside the mirrored subset")
	}
	var (
		idTick    = tr.id("traffic.tick")
		idSubmit  = tr.id("network.submit")
		idStep    = tr.id("network.step")
		idDrain   = tr.id("network.drain")
		idAccount = tr.id("driver.account")
		idOp      = tr.id("op")
	)
	opStart := tr.now()
	op := tr.add(idOp, -1, opStart, opStart) // end fixed below

	net := network.New(cfg.Net)
	topo := net.Topology()
	pattern, err := traffic.ByName(cfg.Pattern, topo)
	if err != nil {
		return sim.Metrics{}, nil, err
	}
	gen := traffic.NewGeneratorLengths(topo, pattern, cfg.Load, traffic.FixedLength(cfg.MsgLen), cfg.Seed)

	window := make(map[flit.MessageID]int64)
	hist := stats.NewHistogram(16, 4096)
	phases := obs.NewPhaseBreakdown(16, 4096)
	var lat stats.Welford
	var s0, s1 windowCounters

	measureStart := cfg.WarmupCycles
	measureEnd := cfg.WarmupCycles + cfg.MeasureCycles
	drainEnd := measureEnd + cfg.DrainCycles

	var delivered, corrupt, maxNetResidence int64
	var abortErr error
	var offered []flit.Message
	for cycle := int64(0); cycle < drainEnd; cycle++ {
		switch cycle {
		case measureStart:
			s0 = takeWindowCounters(net)
		case measureEnd:
			s1 = takeWindowCounters(net)
		}
		if cycle < measureEnd {
			t0 := tr.now()
			offered = offered[:0]
			for node := 0; node < topo.Nodes(); node++ {
				if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
					if cycle >= measureStart {
						window[m.ID] = m.CreateTime
					}
					offered = append(offered, m)
				}
			}
			t1 := tr.now()
			for _, m := range offered {
				net.SubmitMessage(m)
			}
			t2 := tr.now()
			tr.add(idTick, op, t0, t1)
			tr.add(idSubmit, op, t1, t2)
		}
		t0 := tr.now()
		net.Step()
		t1 := tr.now()
		deliveries := net.DrainDeliveries()
		t2 := tr.now()
		for _, d := range deliveries {
			created, ok := window[d.Msg]
			if !ok {
				continue
			}
			delete(window, d.Msg)
			delivered++
			l := d.Time - created
			lat.Add(float64(l))
			hist.Add(l)
			if nr := d.Time - d.Stamps.AttemptInject; nr > maxNetResidence {
				maxNetResidence = nr
			}
			phases.Add(d.Stamps.FirstInject-created,
				d.Stamps.AttemptInject-d.Stamps.FirstInject,
				d.HeadArrived-d.Stamps.AttemptInject,
				d.Time-d.HeadArrived,
				d.Stamps.Backoff)
			if !d.DataOK {
				corrupt++
			}
		}
		t3 := tr.now()
		tr.add(idStep, op, t0, t1)
		tr.add(idDrain, op, t1, t2)
		tr.add(idAccount, op, t2, t3)
		if err := net.Health(); err != nil {
			abortErr = err
			if cycle < measureEnd {
				s1 = takeWindowCounters(net)
				if cycle < measureStart {
					s0 = s1
				}
			}
			break
		}
		if cycle >= measureEnd && len(window) == 0 {
			break
		}
	}
	tr.spans[op].end = tr.now()

	nodes := float64(topo.Nodes())
	capacity := traffic.CapacityFlitsPerNode(topo)
	measure := float64(cfg.MeasureCycles)
	is, rs := net.InjectorStats(), net.ReceiverStats()
	m := sim.Metrics{
		OfferedLoad:      cfg.Load * capacity,
		OfferedFrac:      cfg.Load,
		Throughput:       float64(s1.recvDataFlits-s0.recvDataFlits) / nodes / measure,
		Delivered:        delivered,
		Censored:         int64(len(window)),
		AvgLatency:       lat.Mean(),
		P50Latency:       hist.Percentile(0.50),
		P95Latency:       hist.Percentile(0.95),
		P99Latency:       hist.Percentile(0.99),
		MaxLatency:       hist.Max(),
		MaxNetResidence:  maxNetResidence,
		QueueLatency:     phases.Queue.Mean(),
		RetryLatency:     phases.Retry.Mean(),
		FlightLatency:    phases.Flight.Mean(),
		DrainLatency:     phases.Drain.Mean(),
		BackoffLatency:   phases.Backoff.Mean(),
		Phases:           phases,
		DeliveredCorrupt: corrupt,
		FailedMessages:   is.Failed,
		OrderErrors:      rs.OrderErrors,
		LateFKills:       is.LateFKills,
		TransientFaults:  net.TransientFaults(),
		Misroutes:        s1.misroutes - s0.misroutes,
		StaleSignals:     s1.staleSig - s0.staleSig,
	}
	m.ThroughputFrac = m.Throughput / capacity
	if delivered > 0 {
		m.KillsPerMsg = float64(s1.kills-s0.kills) / float64(delivered)
		m.RetriesPerMsg = float64(s1.retries-s0.retries) / float64(delivered)
		m.FKillsPerMsg = float64(s1.fkills-s0.fkills) / float64(delivered)
		m.PDSPerMsg = float64(s1.pds-s0.pds) / float64(delivered)
	}
	if d := s1.dataFlits - s0.dataFlits; d > 0 {
		m.PadOverhead = float64(s1.padFlits-s0.padFlits) / float64(d)
	}
	m.FaultEventsApplied = net.FaultEventsApplied()
	if err := phases.CheckSum(); err != nil && abortErr == nil {
		abortErr = err
	}
	return m, net, abortErr
}
