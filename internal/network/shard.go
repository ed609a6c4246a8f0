package network

import (
	"crnet/internal/core"
	"crnet/internal/router"
	"crnet/internal/topology"
)

// Sharded stepping: one simulation partitioned across worker
// goroutines with byte-identical results to the serial kernel
// (see DESIGN.md §10).
//
// The node set is split into contiguous id ranges, one per shard. Each
// phase of the engine.go pipeline runs either serially on the
// coordinator (signals and fault events, whose iteration order is
// queue order rather than node order) or fanned out across the shards
// with a full barrier between phases. Workers touch only state owned
// by their node range — routers, injectors, receivers, output links,
// worklists — and push every cross-node side effect into their own
// sink; the coordinator merges the sinks *in shard order* at each
// barrier. Because shards are contiguous ascending id ranges and every
// phase walks its shard-local worklist ascending, concatenating the
// per-shard queues in shard order reproduces exactly the sequence the
// serial kernel would have appended — which is why results (traces,
// signal queues, delivery streams, stats) are byte-identical for every
// shard count.
//
// Credits are the one cross-shard flow that may target any node, so
// each shard sink carries a per-destination-shard matrix row
// (outCredits); in the credits phase each worker applies column
// [me] of every row to its own routers. Credit application is
// commutative (pure counter increments, read only by the next cycle's
// allocate), so only the multiset matters, and the matrix needs no
// global ordering.

// sink collects the cross-node side effects of one execution context:
// the serial kernel's (embedded in Network) or one shard's. Appends are
// always made by the context that owns the sink; merging into the
// global sink happens only at barriers, on the coordinator.
type sink struct {
	signals    []scheduledSignal
	credits    []creditEvent
	fkills     []fkillReq
	busyLinks  []linkRef
	recvPend   []int32
	deliveries []core.Delivery
	emitBuf    []router.Emit

	// outCredits is the per-destination-shard credit matrix row; nil on
	// the serial sink (credits then go to the flat queue above).
	outCredits [][]creditEvent

	// events buffers trace events when deferred is set (shard sinks):
	// workers cannot call the tracer concurrently, so they record and
	// the coordinator replays in shard order at the barrier.
	events   []Event
	deferred bool

	// moved reports switch-transmission progress for this context's
	// transmit phase; ORed into the cycle's progress flag.
	moved bool

	killsDropped  int64
	flitsInjected int64
	flitsEjected  int64

	// dirty lists this context's routers that a mutating method ran on
	// since the last check (Config.Check only; see Router.TrackDirty).
	// Routers join it themselves; finishStep checks, clears and
	// truncates it. reset leaves it alone: the routers it lists are
	// still marked, and Network.Reset re-marks every router it resets.
	dirty []*router.Router
}

// reset empties the sink's queues and counters, keeping capacity.
func (s *sink) reset() {
	s.signals = s.signals[:0]
	s.credits = s.credits[:0]
	s.fkills = s.fkills[:0]
	s.busyLinks = s.busyLinks[:0]
	s.recvPend = s.recvPend[:0]
	s.deliveries = s.deliveries[:0]
	s.emitBuf = s.emitBuf[:0]
	for i := range s.outCredits {
		s.outCredits[i] = s.outCredits[i][:0]
	}
	s.events = s.events[:0]
	s.moved = false
	s.killsDropped, s.flitsInjected, s.flitsEjected = 0, 0, 0
}

// shard owns the contiguous node range [lo, hi): those nodes'
// routers/injectors/receivers, their output links, and the shard-local
// activity worklists.
type shard struct {
	sink
	lo, hi int32

	activeR nodeSet // this shard's routers with buffered flits
	activeI nodeSet // this shard's injectors with pending work

	// arrivals is this cycle's bucket of busy links whose flit lands in
	// this shard, filled by the coordinator's arrivals prepass in
	// global (node, port) order.
	arrivals []linkRef
}

func (sh *shard) reset() {
	sh.sink.reset()
	sh.activeR.reset()
	sh.activeI.reset()
	sh.arrivals = sh.arrivals[:0]
}

// initShards builds the shard partition. s <= 1 selects the serial
// kernel (no shards); s is clamped to the node count. The first
// (nodes mod s) shards are one node larger, so every shard count —
// dividing the node count or not — yields a total, contiguous,
// ascending partition.
func (n *Network) initShards(s int) {
	if s <= 1 {
		return
	}
	if s > n.nodes {
		s = n.nodes
	}
	n.shards = make([]shard, s)
	n.nodeShard = make([]int32, n.nodes)
	per, rem := n.nodes/s, n.nodes%s
	lo := 0
	for i := range n.shards {
		size := per
		if i < rem {
			size++
		}
		sh := &n.shards[i]
		sh.lo, sh.hi = int32(lo), int32(lo+size)
		sh.activeR = newNodeSet(lo, lo+size)
		sh.activeI = newNodeSet(lo, lo+size)
		sh.outCredits = make([][]creditEvent, s)
		sh.deferred = true
		for id := lo; id < lo+size; id++ {
			n.nodeShard[id] = int32(i)
		}
		lo += size
	}
}

// sinkFor returns the sink owning node's side effects: the node's
// shard sink when sharded, the serial sink otherwise. In parallel
// phases the executing worker is always node's owner, so the returned
// sink is safe to append to without synchronization.
func (n *Network) sinkFor(node topology.NodeID) *sink {
	if n.shards == nil {
		return &n.sink
	}
	return &n.shards[n.nodeShard[node]].sink
}

// pushCredit queues one deferred credit refund toward (node, port, vc).
// On a shard sink the refund is filed in the matrix row under the
// *destination* node's shard; on the serial sink it goes to the flat
// queue applied at the top of the credits phase.
func (n *Network) pushCredit(sk *sink, node topology.NodeID, port, vc, cnt int) {
	n.pushCreditEv(sk, creditEvent{node: int32(node), port: int16(port), vc: uint8(vc), n: int32(cnt)})
}

// pushCreditEv queues a fully formed credit event (plain refunds and/or
// a window-advertisement delta) through the same routing as pushCredit.
//
//cr:hotpath credit queueing on every flit move and window advertisement
func (n *Network) pushCreditEv(sk *sink, ev creditEvent) {
	if sk.outCredits != nil {
		d := n.nodeShard[ev.node]
		sk.outCredits[d] = append(sk.outCredits[d], ev)
		return
	}
	sk.credits = append(sk.credits, ev)
}

// shardPhase selects the worker body in forkJoin.
type shardPhase uint8

const (
	spArrivals shardPhase = iota
	spInjectors
	spAllocate
	spTransmit
	spFKills
	spCredits
)

// forkJoin runs one parallel phase: every shard's body on its own
// goroutine, full barrier before returning. Goroutines are per-phase
// rather than long-lived so the Network needs no Close and an idle
// network holds no threads; the spawn cost is far below one phase's
// work at the sizes where sharding is worth enabling.
func (n *Network) forkJoin(ph shardPhase) {
	n.wg.Add(len(n.shards))
	for i := range n.shards {
		go n.shardWorker(i, ph)
	}
	n.wg.Wait()
}

func (n *Network) shardWorker(i int, ph shardPhase) {
	defer n.wg.Done()
	sh := &n.shards[i]
	switch ph {
	case spArrivals:
		n.shardArrivals(sh)
	case spInjectors:
		n.shardInjectors(sh)
	case spAllocate:
		n.shardAllocate(sh)
	case spTransmit:
		n.shardTransmit(sh)
	case spFKills:
		n.shardFKills(sh)
	case spCredits:
		n.shardCredits(sh, int32(i))
	}
}

// mergeBarrier drains every shard sink into the global one, in shard
// order. Shards are contiguous ascending node ranges and each phase
// body iterates ascending, so this concatenation reproduces the exact
// append order of the serial kernel; buffered trace events replay the
// same way.
func (n *Network) mergeBarrier() {
	for i := range n.shards {
		sh := &n.shards[i]
		for _, ev := range sh.events {
			n.tracer(ev)
		}
		sh.events = sh.events[:0]
		if len(sh.signals) > 0 {
			n.signals = append(n.signals, sh.signals...)
			sh.signals = sh.signals[:0]
		}
		if len(sh.deliveries) > 0 {
			n.deliveries = append(n.deliveries, sh.deliveries...)
			sh.deliveries = sh.deliveries[:0]
		}
		if len(sh.credits) > 0 {
			// Shard sinks file credits in the matrix, so this queue is
			// normally empty; merged defensively to keep the invariant
			// "every queued credit is applied this cycle".
			n.credits = append(n.credits, sh.credits...)
			sh.credits = sh.credits[:0]
		}
	}
}

// stepSharded is the sharded twin of the serial pipeline loop: the same
// eight phases in the same order, with the node-ordered phases fanned
// out and a barrier (plus sink merge) between phases. It reports
// whether any flit made progress. Signals and fault events stay on
// the coordinator — their iteration order is queue order, which no
// spatial partition preserves — as does the arrivals prepass, which
// must draw the corruption RNG in global link order.
func (n *Network) stepSharded() bool {
	n.phaseSignals()
	any := n.prepassArrivals()
	n.forkJoin(spArrivals)
	n.phaseFaultEvents()
	n.forkJoin(spInjectors)
	n.mergeBarrier()
	n.forkJoin(spAllocate)
	n.mergeBarrier()
	n.forkJoin(spTransmit)
	n.mergeBarrier()
	moved := false
	for i := range n.shards {
		if n.shards[i].moved {
			moved = true
			n.shards[i].moved = false
		}
	}
	n.forkJoin(spFKills)
	n.mergeBarrier()
	n.applyGlobalCredits()
	n.forkJoin(spCredits)
	n.mergeBarrier()
	for i := range n.shards {
		sh := &n.shards[i]
		n.sink.killsDropped += sh.killsDropped
		n.sink.flitsInjected += sh.flitsInjected
		n.sink.flitsEjected += sh.flitsEjected
		sh.killsDropped, sh.flitsInjected, sh.flitsEjected = 0, 0, 0
	}
	return any || moved
}

// prepassArrivals is the serial half of the sharded arrivals phase: it
// walks every shard's busy-link worklist in shard order (= the serial
// kernel's append order), clears link occupancy, applies drops and the
// corruption process (whose RNG stream must be drawn in global link
// order), emits the arrival traces, and buckets each surviving flit's
// link ref under the *downstream* node's shard for the parallel apply.
//
//cr:hotpath serial half of the sharded arrivals phase
func (n *Network) prepassArrivals() bool {
	any := false
	for si := range n.shards {
		sh := &n.shards[si]
		for _, ref := range sh.busyLinks {
			l := n.linkAt(int(ref.node), int(ref.port))
			if !l.busy {
				continue // dropped by a fault after launch
			}
			any = true
			l.busy = false
			if !l.up {
				n.flitsDropped++
				continue
			}
			if n.corrupter.Apply(&l.f) {
				n.flitsDegraded++
				n.trace(EvCorrupt, topology.NodeID(l.toNode), int(l.toPort), int(l.vc), l.f.Worm, l.f.Seq)
			}
			n.trace(EvArrive, topology.NodeID(l.toNode), int(l.toPort), int(l.vc), l.f.Worm, l.f.Seq)
			dst := &n.shards[n.nodeShard[l.toNode]]
			dst.arrivals = append(dst.arrivals, ref)
		}
		sh.busyLinks = sh.busyLinks[:0]
	}
	return any
}

// shardArrivals applies this shard's bucketed arrivals: hand each flit
// to its (owned) downstream router, refund straggler credits upstream
// through the matrix, and activate the router.
//
//cr:hotpath parallel half of the sharded arrivals phase
func (n *Network) shardArrivals(sh *shard) {
	sk := &sh.sink
	for _, ref := range sh.arrivals {
		l := n.linkAt(int(ref.node), int(ref.port))
		if n.routerAt(topology.NodeID(l.toNode)).AcceptFlit(int(l.toPort), int(l.vc), l.f) {
			n.pushCredit(sk, topology.NodeID(ref.node), int(ref.port), int(l.vc), 1)
		}
		sh.activeR.add(l.toNode)
	}
	sh.arrivals = sh.arrivals[:0]
}

// shardInjectors is phaseInjectors over this shard's worklist.
//
//cr:hotpath sharded injectors phase body
func (n *Network) shardInjectors(sh *shard) {
	sh.activeI.prepare()
	kept := sh.activeI.ids[:0]
	for _, id := range sh.activeI.ids {
		in := n.injectors[id]
		in.Tick(n.cycle)
		if in.Busy() || in.QueueLen() > 0 {
			kept = append(kept, id)
		} else {
			sh.activeI.drop(id)
		}
	}
	sh.activeI.ids = kept
}

// shardAllocate is phaseAllocate over this shard's worklist.
//
//cr:hotpath sharded allocate phase body
func (n *Network) shardAllocate(sh *shard) {
	sk := &sh.sink
	sh.activeR.prepare()
	for _, id := range sh.activeR.ids {
		r := n.routers[id]
		sk.emitBuf = r.RouteAndAllocate(sk.emitBuf[:0])
		if len(sk.emitBuf) > 0 {
			n.routeEmits(sk, topology.NodeID(id), sk.emitBuf)
		}
	}
}

// shardTransmit is phaseTransmit over this shard's worklist.
//
//cr:hotpath sharded transmit phase body
func (n *Network) shardTransmit(sh *shard) {
	sk := &sh.sink
	kept := sh.activeR.ids[:0]
	for _, id := range sh.activeR.ids {
		if n.transmitRouter(sk, int(id)) {
			sk.moved = true
		}
		if n.routers[id].Busy() {
			kept = append(kept, id)
		} else {
			sh.activeR.drop(id)
		}
	}
	sh.activeR.ids = kept
}

// shardFKills is phaseFKills over this shard's queue. FKill requests
// are filed at the receiver's own node, so the queue already contains
// only owned nodes and — being appended during the ascending transmit
// walk — is already in serial order.
//
//cr:hotpath sharded fkills phase body
func (n *Network) shardFKills(sh *shard) {
	if len(sh.fkills) == 0 {
		return
	}
	sk := &sh.sink
	reqs := sh.fkills
	sh.fkills = sh.fkills[:0]
	for _, req := range reqs {
		r := n.routers[req.node]
		sig := router.Signal{Kind: router.KillBwd, Port: r.EjPort(req.ch), VC: 0, Worm: req.worm}
		sk.emitBuf = r.ApplySignal(sig, sk.emitBuf[:0])
		n.routeEmits(sk, req.node, sk.emitBuf)
	}
}

// applyGlobalCredits serially applies the coordinator-accumulated
// credit queue (from the serial phases: signal delivery and fault
// sweeps) before the parallel matrix application; order does not
// matter — credits are commutative within a cycle — but these may
// target any node, so they cannot be applied from a worker.
//
//cr:hotpath serial half of the sharded credits phase
func (n *Network) applyGlobalCredits() {
	for _, c := range n.credits {
		n.routerAt(topology.NodeID(c.node)).ApplyCredit(int(c.port), int(c.vc), int(c.n), int(c.w))
	}
	n.credits = n.credits[:0]
}

// shardCredits applies column [me] of every shard's credit matrix to
// this shard's routers, then drains this shard's accepting receivers
// (ascending node order within the shard, matching the serial drain).
//
//cr:hotpath sharded credits phase body
func (n *Network) shardCredits(sh *shard, me int32) {
	sk := &sh.sink
	for si := range n.shards {
		cell := n.shards[si].outCredits[me]
		for _, c := range cell {
			n.routers[c.node].ApplyCredit(int(c.port), int(c.vc), int(c.n), int(c.w))
		}
		n.shards[si].outCredits[me] = cell[:0]
	}
	for _, id := range sk.recvPend {
		n.recvMark[id] = false //cr:sharded recvMark[id] belongs to the shard that owns node id
		n.drainReceiver(sk, int(id), n.receivers[id])
	}
	sk.recvPend = sk.recvPend[:0]
}
