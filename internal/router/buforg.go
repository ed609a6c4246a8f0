package router

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
)

// Buffer organizations. The router's input buffering is a seam
// (bufStore) with three implementations selected by Config.Org:
//
//   - OrgStaticFIFO: every input VC owns a private circular window of
//     BufDepth flits in one flat arena — bit-for-bit the original
//     kernel, and the default.
//   - OrgDAMQ: each network input port owns a linked-slot pool of
//     VCs*BufDepth flits shared across that port's VCs
//     (dynamically-allocated multi-queue). Every VC keeps a reserved
//     minimum of BufReserve slots so one hot VC cannot starve its
//     siblings; the rest is granted on demand.
//   - OrgCreditShared: one router-wide linked-slot pool of
//     deg*VCs*BufDepth flits shared across all network input ports,
//     with the same reserve discipline.
//
// Injection channels are private BufDepth windows in every org: the
// local injector reads their occupancy directly (InjectionFree), so
// they take no part in credit advertisement.
//
// Credit protocol under sharing: the upstream output VC tracks a
// dynamic window alongside its credit count, and a VC is claimable when
// credit == window (the generalized "fully drained" condition; for the
// static org window is constant BufDepth, reducing to the original
// rule). Windows start at the reserve; when a head flit is accepted the
// downstream pool grants the VC extra window up to its cap, advertised
// upstream as a credit+window delta; when the worm releases the VC the
// excess shrinks back to the reserve and is re-granted round-robin to
// active sibling VCs. All advertisement deltas are additive, so they
// commute with ordinary refunds inside a cycle and ride the sharded
// kernel's credit mailbox matrix unchanged (see network/shard.go).
//
// The DAMQ and credit-shared implementations share the pooledStore
// machinery and differ only in pool geometry (per-port vs router-wide).

// BufferOrg selects the router's input-buffer organization.
type BufferOrg uint8

const (
	// OrgStaticFIFO gives every input VC a private BufDepth window (the
	// default; byte-identical to the pre-seam kernel).
	OrgStaticFIFO BufferOrg = iota
	// OrgDAMQ shares a per-port slot pool across the port's VCs.
	OrgDAMQ
	// OrgCreditShared shares one router-wide slot pool across all
	// network input ports.
	OrgCreditShared
)

// String implements fmt.Stringer.
func (o BufferOrg) String() string {
	switch o {
	case OrgStaticFIFO:
		return "fifo"
	case OrgDAMQ:
		return "damq"
	case OrgCreditShared:
		return "shared"
	default:
		return fmt.Sprintf("BufferOrg(%d)", uint8(o))
	}
}

// ParseBufferOrg parses the names produced by String (sweep-axis and
// CLI flag values).
func ParseBufferOrg(s string) (BufferOrg, error) {
	switch s {
	case "fifo", "static", "":
		return OrgStaticFIFO, nil
	case "damq":
		return OrgDAMQ, nil
	case "shared", "credit-shared":
		return OrgCreditShared, nil
	default:
		return 0, fmt.Errorf("router: unknown buffer org %q (want fifo, damq or shared)", s)
	}
}

// BufferOrgs lists every organization, for sweep drivers.
var BufferOrgs = []BufferOrg{OrgStaticFIFO, OrgDAMQ, OrgCreditShared}

// bufReserve returns the effective per-VC reserved minimum for the
// shared orgs (Config.BufReserve, default 1).
func (c Config) bufReserve() int {
	if c.BufReserve > 0 {
		return c.BufReserve
	}
	return 1
}

// bufShare returns the effective per-VC sharing cap above the reserve
// (Config.BufShare, default BufDepth).
func (c Config) bufShare() int {
	if c.BufShare > 0 {
		return c.BufShare
	}
	return c.BufDepth
}

// initWindow is the window a network output VC starts with (and returns
// to whenever its worm releases it): the full depth for static FIFO,
// the reserve for the shared orgs.
func (c Config) initWindow() int {
	if c.Org == OrgStaticFIFO {
		return c.BufDepth
	}
	return c.bufReserve()
}

// groupVCs returns how many VCs share one pool under org geometry.
func (c Config) groupVCs(deg int) int {
	if c.Org == OrgCreditShared {
		return deg * c.VCs
	}
	return c.VCs
}

// poolSlots returns the slot count of one pool: the same silicon budget
// as the static arena over the pool's VC group.
func (c Config) poolSlots(deg int) int {
	return c.groupVCs(deg) * c.BufDepth
}

// maxWindow is the largest window one VC may be granted: reserve plus
// share, clamped so every sibling always keeps its reserve.
func (c Config) maxWindow(deg int) int {
	if c.Org == OrgStaticFIFO {
		return c.BufDepth
	}
	rsv := c.bufReserve()
	bound := c.poolSlots(deg) - (c.groupVCs(deg)-1)*rsv
	if w := rsv + c.bufShare(); w < bound {
		return w
	}
	return bound
}

// AbsorbDepth returns the worst-case per-hop, per-VC flit absorption of
// the organization — the quantity CR/FCR padding must be computed from
// for the protocol's commit bound to hold (core.IminCR assumes no hop
// can swallow more than this many flits of one worm). For static FIFO
// it is BufDepth; for the shared orgs it is the window cap.
func (c Config) AbsorbDepth(deg int) int { return c.maxWindow(deg) }

// bufStore is the buffer-organization seam: FIFO storage for every
// input VC (addressed by flat index, injection channels last) plus the
// org's window-grant policy and snapshot codec. Occupancy counts are
// maintained by the router (inVC.count) and passed in where storage
// needs them; the store owns slot placement, free lists and the
// granted-window ledger.
type bufStore interface {
	// push appends f to VC i's FIFO; n is the occupancy before the push
	// (the admission bound capOf was already checked by the caller).
	push(i, n int, f flit.Flit)
	// pop removes and returns VC i's front flit.
	pop(i int) flit.Flit
	// front returns a pointer to VC i's front flit.
	front(i int) *flit.Flit
	// purge drops every buffered flit of VC i.
	purge(i int)
	// capOf is VC i's maximum occupancy (its admission bound).
	capOf(i int) int
	// totalSlots is the aggregate flit capacity across all VCs.
	totalSlots() int
	// grantOnHead records a head flit accepted on network VC i and
	// returns the window growth to advertise upstream (0 for static).
	grantOnHead(i int) int
	// release records VC i's worm releasing the channel normally (tail
	// transmitted): the window shrinks back to the reserve and the freed
	// budget is re-granted round-robin to active siblings. emit is
	// called with (vc index, window delta) for every advertisement;
	// active reports whether a sibling currently hosts a worm. Kill
	// teardowns must NOT call release (see Router.purge): the tenure
	// freezes until the channel's next worm completes.
	release(i int, active func(j int) bool, emit func(j, delta int))
	// resetGrant silently returns VC i's granted window to the reserve
	// with no upstream advertisement — for link repair, where the
	// network resets the upstream window out of band (SetLinkUp).
	resetGrant(i int)
	// reset returns the store to its as-constructed state.
	reset()
	// saveVC/loadVC encode VC i's n buffered flits front-to-back.
	// loadVC assumes a freshly reset store and claims slots in
	// deterministic order (free lists are rebuilt canonically, not
	// serialized). It range-validates against pool capacity.
	saveVC(e *snapshot.Encoder, i, n int)
	loadVC(d *snapshot.Decoder, i, n int) error
	// saveExtra/loadExtra encode org-specific ledgers (granted windows,
	// grant rotation); empty for static FIFO. loadExtra range-validates
	// every count against pool capacity.
	saveExtra(e *snapshot.Encoder)
	loadExtra(d *snapshot.Decoder) error
	// check audits org invariants: slot conservation (per-VC chains +
	// free list == pool size), window-ledger bounds and occupancy
	// within granted windows, against the router's input VCs (ins[j]
	// is flat VC j, whose count is its occupancy).
	check(ins []inVC) error
}

// newBufStore builds the configured organization for a router with the
// given degree and flat input-VC count (nIn = deg*VCs + injection).
func newBufStore(cfg Config, deg, nIn int) bufStore {
	switch cfg.Org {
	case OrgStaticFIFO:
		return newStaticStore(cfg, nIn)
	case OrgDAMQ:
		return newPooledStore(cfg, deg, nIn, deg, cfg.VCs)
	case OrgCreditShared:
		return newPooledStore(cfg, deg, nIn, 1, deg*cfg.VCs)
	default:
		panic(fmt.Sprintf("router: unknown buffer org %d", cfg.Org))
	}
}

// staticStore is the original organization: one flat arena, every VC a
// private circular BufDepth window.
type staticStore struct {
	arena []flit.Flit
	head  []int32
	depth int
}

func newStaticStore(cfg Config, nIn int) *staticStore {
	return &staticStore{
		arena: make([]flit.Flit, nIn*cfg.BufDepth),
		head:  make([]int32, nIn),
		depth: cfg.BufDepth,
	}
}

//cr:hotpath buffer push on every accepted flit
func (s *staticStore) push(i, n int, f flit.Flit) {
	s.arena[i*s.depth+(int(s.head[i])+n)%s.depth] = f
}

//cr:hotpath buffer pop on every transmitted flit
func (s *staticStore) pop(i int) flit.Flit {
	f := s.arena[i*s.depth+int(s.head[i])]
	s.head[i] = int32((int(s.head[i]) + 1) % s.depth)
	return f
}

//cr:hotpath front access during allocation and arbitration
func (s *staticStore) front(i int) *flit.Flit { return &s.arena[i*s.depth+int(s.head[i])] }

func (s *staticStore) purge(i int)                                 { s.head[i] = 0 }
func (s *staticStore) capOf(int) int                               { return s.depth }
func (s *staticStore) totalSlots() int                             { return len(s.arena) }
func (s *staticStore) grantOnHead(int) int                         { return 0 }
func (s *staticStore) release(int, func(int) bool, func(int, int)) {}
func (s *staticStore) resetGrant(int)                              {}
func (s *staticStore) saveExtra(*snapshot.Encoder)                 {}
func (s *staticStore) loadExtra(*snapshot.Decoder) error           { return nil }
func (s *staticStore) check([]inVC) error                          { return nil }

func (s *staticStore) reset() {
	for i := range s.head {
		s.head[i] = 0
	}
}

func (s *staticStore) saveVC(e *snapshot.Encoder, i, n int) {
	base := i * s.depth
	for k := 0; k < n; k++ {
		f := s.arena[base+(int(s.head[i])+k)%s.depth]
		flit.PutFlit(e, &f)
	}
}

func (s *staticStore) loadVC(d *snapshot.Decoder, i, n int) error {
	base := i * s.depth
	for k := 0; k < n; k++ {
		s.arena[base+k] = flit.GetFlit(d)
	}
	s.head[i] = 0
	return d.Err()
}

// pooledStore implements the two shared organizations: linked-slot
// pools over the network input VCs (per-port pools for DAMQ, one
// router-wide pool for credit-shared) plus private static windows for
// the injection channels. Pool p covers pooled VCs
// [p*vcsPer, (p+1)*vcsPer) and slots [p*poolCap, (p+1)*poolCap).
type pooledStore struct {
	slots []flit.Flit
	next  []int32 // slot -> successor in its VC chain or free list (-1 end)

	vcHead []int32 // per pooled VC: chain head slot (-1 empty)
	vcTail []int32

	freeHead []int32 // per pool: free-list head slot (-1 empty)
	freeN    []int32 // per pool: free-list length

	granted  []int32 // per pooled VC: advertised window (the upstream mirror)
	grantSum []int32 // per pool: sum of granted (the advertisement budget)
	grantRR  []int32 // per pool: round-robin start for release top-ups

	pools   int
	vcsPer  int
	poolCap int32
	rsv     int32
	capW    int32

	nPooled int // pooled VC count; flat indices >= nPooled are injection

	inj      []flit.Flit // private injection windows
	injHead  []int32
	injDepth int
}

func newPooledStore(cfg Config, deg, nIn, pools, vcsPer int) *pooledStore {
	nPooled := pools * vcsPer
	nInj := nIn - nPooled
	s := &pooledStore{
		slots:    make([]flit.Flit, nPooled*cfg.BufDepth),
		next:     make([]int32, nPooled*cfg.BufDepth),
		vcHead:   make([]int32, nPooled),
		vcTail:   make([]int32, nPooled),
		freeHead: make([]int32, pools),
		freeN:    make([]int32, pools),
		granted:  make([]int32, nPooled),
		grantSum: make([]int32, pools),
		grantRR:  make([]int32, pools),
		pools:    pools,
		vcsPer:   vcsPer,
		poolCap:  int32(vcsPer * cfg.BufDepth),
		rsv:      int32(cfg.bufReserve()),
		capW:     int32(cfg.maxWindow(deg)),
		nPooled:  nPooled,
		inj:      make([]flit.Flit, nInj*cfg.BufDepth),
		injHead:  make([]int32, nInj),
		injDepth: cfg.BufDepth,
	}
	s.reset()
	return s
}

func (s *pooledStore) reset() {
	for i := range s.vcHead {
		s.vcHead[i], s.vcTail[i] = -1, -1
		s.granted[i] = s.rsv
	}
	for p := 0; p < s.pools; p++ {
		// Free list: ascending slot order (slot base+0 on top), rebuilt
		// identically by loadVC's claim order.
		base := int32(p) * s.poolCap
		s.freeHead[p] = -1
		for k := s.poolCap - 1; k >= 0; k-- {
			s.next[base+k] = s.freeHead[p]
			s.freeHead[p] = base + k
		}
		s.freeN[p] = s.poolCap
		s.grantSum[p] = int32(s.vcsPer) * s.rsv
		s.grantRR[p] = 0
	}
	for i := range s.injHead {
		s.injHead[i] = 0
	}
}

func (s *pooledStore) poolOf(i int) int { return i / s.vcsPer }

//cr:hotpath slot claim on every pooled-buffer push
func (s *pooledStore) allocSlot(pool int) int32 {
	h := s.freeHead[pool]
	if h < 0 {
		panic("router: buffer pool exhausted (credit protocol violated)")
	}
	s.freeHead[pool] = s.next[h]
	s.freeN[pool]--
	s.next[h] = -1
	return h
}

//cr:hotpath slot release on every pooled-buffer pop/purge
func (s *pooledStore) freeSlot(pool int, slot int32) {
	s.next[slot] = s.freeHead[pool]
	s.freeHead[pool] = slot
	s.freeN[pool]++
}

//cr:hotpath buffer push on every accepted flit
func (s *pooledStore) push(i, n int, f flit.Flit) {
	if i >= s.nPooled {
		j := i - s.nPooled
		s.inj[j*s.injDepth+(int(s.injHead[j])+n)%s.injDepth] = f
		return
	}
	slot := s.allocSlot(s.poolOf(i))
	s.slots[slot] = f
	if s.vcTail[i] < 0 {
		s.vcHead[i] = slot
	} else {
		s.next[s.vcTail[i]] = slot
	}
	s.vcTail[i] = slot
}

//cr:hotpath buffer pop on every transmitted flit
func (s *pooledStore) pop(i int) flit.Flit {
	if i >= s.nPooled {
		j := i - s.nPooled
		f := s.inj[j*s.injDepth+int(s.injHead[j])]
		s.injHead[j] = int32((int(s.injHead[j]) + 1) % s.injDepth)
		return f
	}
	h := s.vcHead[i]
	f := s.slots[h]
	s.vcHead[i] = s.next[h]
	if s.vcHead[i] < 0 {
		s.vcTail[i] = -1
	}
	s.freeSlot(s.poolOf(i), h)
	return f
}

//cr:hotpath front access during allocation and arbitration
func (s *pooledStore) front(i int) *flit.Flit {
	if i >= s.nPooled {
		j := i - s.nPooled
		return &s.inj[j*s.injDepth+int(s.injHead[j])]
	}
	return &s.slots[s.vcHead[i]]
}

func (s *pooledStore) purge(i int) {
	if i >= s.nPooled {
		s.injHead[i-s.nPooled] = 0
		return
	}
	pool := s.poolOf(i)
	for h := s.vcHead[i]; h >= 0; {
		nx := s.next[h]
		s.freeSlot(pool, h)
		h = nx
	}
	s.vcHead[i], s.vcTail[i] = -1, -1
}

func (s *pooledStore) capOf(i int) int {
	if i >= s.nPooled {
		return s.injDepth
	}
	return int(s.capW)
}

func (s *pooledStore) totalSlots() int { return len(s.slots) + len(s.inj) }

//cr:hotpath window grant decision on every accepted head flit
func (s *pooledStore) grantOnHead(i int) int {
	if i >= s.nPooled {
		return 0
	}
	pool := s.poolOf(i)
	g := s.capW - s.granted[i]
	if avail := s.poolCap - s.grantSum[pool]; g > avail {
		g = avail
	}
	if g <= 0 {
		return 0
	}
	s.granted[i] += g
	s.grantSum[pool] += g
	return int(g)
}

//cr:hotpath window release + sibling top-up on every worm completion
func (s *pooledStore) release(i int, active func(j int) bool, emit func(j, delta int)) {
	if i >= s.nPooled {
		return
	}
	pool := s.poolOf(i)
	shrink := s.granted[i] - s.rsv
	if shrink <= 0 {
		return
	}
	s.granted[i] = s.rsv
	s.grantSum[pool] -= shrink
	emit(i, int(-shrink))
	// Re-grant the freed budget round-robin to active siblings below
	// their cap, so a waiting worm picks up the shared slots the moment
	// they exist (DAMQ's "use the space somebody else isn't").
	avail := s.poolCap - s.grantSum[pool]
	base := pool * s.vcsPer
	nv := int32(s.vcsPer)
	start := s.grantRR[pool]
	for k := int32(0); k < nv && avail > 0; k++ {
		j := base + int((start+k)%nv)
		if j == i || !active(j) {
			continue
		}
		g := s.capW - s.granted[j]
		if g > avail {
			g = avail
		}
		if g <= 0 {
			continue
		}
		s.granted[j] += g
		s.grantSum[pool] += g
		avail -= g
		emit(j, int(g))
		s.grantRR[pool] = (start + k + 1) % nv
	}
}

func (s *pooledStore) resetGrant(i int) {
	if i >= s.nPooled {
		return
	}
	pool := s.poolOf(i)
	s.grantSum[pool] -= s.granted[i] - s.rsv
	s.granted[i] = s.rsv
}

func (s *pooledStore) saveVC(e *snapshot.Encoder, i, n int) {
	if i >= s.nPooled {
		j := i - s.nPooled
		base := j * s.injDepth
		for k := 0; k < n; k++ {
			f := s.inj[base+(int(s.injHead[j])+k)%s.injDepth]
			flit.PutFlit(e, &f)
		}
		return
	}
	for h := s.vcHead[i]; h >= 0; h = s.next[h] {
		flit.PutFlit(e, &s.slots[h])
	}
}

func (s *pooledStore) loadVC(d *snapshot.Decoder, i, n int) error {
	if i >= s.nPooled {
		j := i - s.nPooled
		base := j * s.injDepth
		for k := 0; k < n; k++ {
			s.inj[base+k] = flit.GetFlit(d)
		}
		s.injHead[j] = 0
		return d.Err()
	}
	pool := s.poolOf(i)
	for k := 0; k < n; k++ {
		f := flit.GetFlit(d)
		if s.freeHead[pool] < 0 {
			return fmt.Errorf("pool %d overflow: VC %d count %d exceeds free slots", pool, i, n)
		}
		s.push(i, k, f)
	}
	return d.Err()
}

func (s *pooledStore) saveExtra(e *snapshot.Encoder) {
	for i := 0; i < s.nPooled; i++ {
		e.Int(int(s.granted[i]))
	}
	for p := 0; p < s.pools; p++ {
		e.Int(int(s.grantRR[p]))
	}
}

func (s *pooledStore) loadExtra(d *snapshot.Decoder) error {
	for p := range s.grantSum {
		s.grantSum[p] = 0
	}
	for i := 0; i < s.nPooled; i++ {
		g := int32(d.Int())
		if err := d.Err(); err != nil {
			return err
		}
		if g < s.rsv || g > s.capW {
			return fmt.Errorf("VC %d granted window %d outside [%d,%d]", i, g, s.rsv, s.capW)
		}
		if occ := s.chainLen(i); int32(occ) > g {
			return fmt.Errorf("VC %d occupancy %d exceeds granted window %d", i, occ, g)
		}
		s.granted[i] = g
		s.grantSum[s.poolOf(i)] += g
	}
	for p := 0; p < s.pools; p++ {
		if s.grantSum[p] > s.poolCap {
			return fmt.Errorf("pool %d granted sum %d exceeds capacity %d", p, s.grantSum[p], s.poolCap)
		}
		rr := int32(d.Int())
		if rr < 0 || rr >= int32(s.vcsPer) {
			return fmt.Errorf("pool %d grant rotation %d outside [0,%d)", p, rr, s.vcsPer)
		}
		s.grantRR[p] = rr
	}
	return d.Err()
}

// chainLen walks VC i's slot chain (bounded by the pool size: the free
// lists and chains partition the slots, a checked invariant).
func (s *pooledStore) chainLen(i int) int {
	n := 0
	for h := s.vcHead[i]; h >= 0 && n <= int(s.poolCap); h = s.next[h] {
		n++
	}
	return n
}

// check is the pooled organizations' audit (see bufStore.check). Every
// error return is a failure path: the first violation ends the run.
//
//cr:hotpath runs on every dirty router every cycle under Config.Check
func (s *pooledStore) check(ins []inVC) error {
	for p := 0; p < s.pools; p++ {
		occ := 0
		gsum := int32(0)
		for k := 0; k < s.vcsPer; k++ {
			i := p*s.vcsPer + k
			n := ins[i].count
			if c := s.chainLen(i); c != n {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("pool %d VC %d chain length %d, occupancy %d", p, i, c, n)
			}
			if g := s.granted[i]; g < s.rsv || g > s.capW {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("pool %d VC %d granted %d outside [%d,%d]", p, i, g, s.rsv, s.capW)
			}
			if int32(n) > s.granted[i] {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("pool %d VC %d occupancy %d exceeds granted %d", p, i, n, s.granted[i])
			}
			occ += n
			gsum += s.granted[i]
		}
		free := 0
		for h := s.freeHead[p]; h >= 0 && free <= int(s.poolCap); h = s.next[h] {
			free++
		}
		if int32(free) != s.freeN[p] {
			//cr:alloc failure path: the first violation ends the run
			return fmt.Errorf("pool %d free list length %d, counter %d", p, free, s.freeN[p])
		}
		if occ+free != int(s.poolCap) {
			//cr:alloc failure path: the first violation ends the run
			return fmt.Errorf("pool %d slot conservation: %d occupied + %d free != %d",
				p, occ, free, s.poolCap)
		}
		if gsum != s.grantSum[p] {
			//cr:alloc failure path: the first violation ends the run
			return fmt.Errorf("pool %d granted sum %d, counter %d", p, gsum, s.grantSum[p])
		}
		if gsum > s.poolCap {
			//cr:alloc failure path: the first violation ends the run
			return fmt.Errorf("pool %d granted sum %d exceeds capacity %d", p, gsum, s.poolCap)
		}
		if rr := s.grantRR[p]; rr < 0 || rr >= int32(s.vcsPer) {
			//cr:alloc failure path: the first violation ends the run
			return fmt.Errorf("pool %d grant rotation %d outside [0,%d)", p, rr, s.vcsPer)
		}
	}
	return nil
}
