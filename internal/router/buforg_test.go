package router

import (
	"bytes"
	"strings"
	"testing"

	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

func TestBufferOrgParse(t *testing.T) {
	for _, org := range BufferOrgs {
		got, err := ParseBufferOrg(org.String())
		if err != nil || got != org {
			t.Errorf("ParseBufferOrg(%q) = %v, %v", org.String(), got, err)
		}
	}
	for s, want := range map[string]BufferOrg{"": OrgStaticFIFO, "static": OrgStaticFIFO, "credit-shared": OrgCreditShared} {
		if got, err := ParseBufferOrg(s); err != nil || got != want {
			t.Errorf("ParseBufferOrg(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseBufferOrg("bogus"); err == nil {
		t.Error("ParseBufferOrg accepted bogus name")
	}
}

// TestBufferOrgGeometry pins the pool geometry and window math: the
// slot budget is the same in every organization, and the window cap
// respects both the share bound and the siblings' reserves.
func TestBufferOrgGeometry(t *testing.T) {
	const deg = 2
	cfg := testConfig() // VCs 2, BufDepth 2, 1 inj, 1 ej
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	for _, org := range BufferOrgs {
		cfg.Org = org
		s := newBufStore(cfg, deg, nIn)
		if got, want := s.totalSlots(), nIn*cfg.BufDepth; got != want {
			t.Errorf("%s: totalSlots %d, want %d", org, got, want)
		}
		// Injection channels are private BufDepth windows in every org.
		if got := s.capOf(nIn - 1); got != cfg.BufDepth {
			t.Errorf("%s: injection capOf %d, want %d", org, got, cfg.BufDepth)
		}
		if got, want := s.capOf(0), cfg.maxWindow(deg); got != want {
			t.Errorf("%s: network capOf %d, want maxWindow %d", org, got, want)
		}
	}
	// DAMQ, VCs=2, depth=2: pool of 4 slots over 2 VCs, reserve 1 →
	// window cap min(1+2, 4-1) = 3. Shared: pool of 8 over 4 VCs →
	// min(1+2, 8-3) = 3. A deep share cap is clamped by the reserves.
	cfg.Org = OrgDAMQ
	if w := cfg.maxWindow(deg); w != 3 {
		t.Errorf("damq maxWindow = %d, want 3", w)
	}
	cfg.Org = OrgCreditShared
	if w := cfg.maxWindow(deg); w != 3 {
		t.Errorf("shared maxWindow = %d, want 3", w)
	}
	cfg.BufShare = 100
	if w, want := cfg.maxWindow(deg), cfg.poolSlots(deg)-(cfg.groupVCs(deg)-1); w != want {
		t.Errorf("shared maxWindow with huge share = %d, want reserve-clamped %d", w, want)
	}
	cfg.BufShare = 0
	if cfg.AbsorbDepth(deg) != cfg.maxWindow(deg) {
		t.Error("AbsorbDepth must equal maxWindow for shared orgs")
	}
	cfg.Org = OrgStaticFIFO
	if cfg.AbsorbDepth(deg) != cfg.BufDepth {
		t.Error("AbsorbDepth must equal BufDepth for static FIFO")
	}
}

// TestPooledGrantLifecycle drives the granted-window ledger of one DAMQ
// pool through its whole protocol: grant on head (capped by the pool
// budget), release with shrink advertisement and round-robin sibling
// top-up, the tenure freeze across purge, and the silent link-repair
// reset.
func TestPooledGrantLifecycle(t *testing.T) {
	const deg = 2
	cfg := testConfig()
	cfg.Org = OrgDAMQ
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	s := newBufStore(cfg, deg, nIn).(*pooledStore)
	// Pool 0 hosts VCs 0 and 1: poolCap 4, reserve 1, window cap 3.
	if s.granted[0] != 1 || s.granted[1] != 1 || s.grantSum[0] != 2 {
		t.Fatalf("fresh ledger granted=%v grantSum=%v", s.granted, s.grantSum)
	}
	// Head on VC 0: grows to the cap (3), bounded by budget 4-2=2.
	if g := s.grantOnHead(0); g != 2 {
		t.Fatalf("grantOnHead(0) = %d, want 2", g)
	}
	// Head on VC 1: budget exhausted (sum 4 == poolCap), no growth.
	if g := s.grantOnHead(1); g != 0 {
		t.Fatalf("grantOnHead(1) = %d, want 0 (budget exhausted)", g)
	}
	// Purge of VC 0 must NOT shrink its grant: the tenure freezes (a
	// kill can race a same-cycle reclaim upstream — see Router.purge).
	s.purge(0)
	if s.granted[0] != 3 || s.grantSum[0] != 4 {
		t.Fatalf("purge moved the ledger: granted=%v sum=%d", s.granted, s.grantSum)
	}
	// Normal release of VC 0: shrink back to the reserve, advertise -2,
	// and top VC 1 (active) up round-robin with the freed budget.
	var ads [][2]int
	s.release(0,
		func(j int) bool { return j == 1 },
		func(j, delta int) { ads = append(ads, [2]int{j, delta}) })
	if s.granted[0] != 1 || s.granted[1] != 3 || s.grantSum[0] != 4 {
		t.Fatalf("after release granted=%v sum=%d", s.granted, s.grantSum)
	}
	want := [][2]int{{0, -2}, {1, 2}}
	if len(ads) != 2 || ads[0] != want[0] || ads[1] != want[1] {
		t.Fatalf("release advertisements %v, want %v", ads, want)
	}
	// Release with no active sibling: the budget just returns.
	var quiet [][2]int
	s.release(1,
		func(int) bool { return false },
		func(j, delta int) { quiet = append(quiet, [2]int{j, delta}) })
	if len(quiet) != 1 || quiet[0] != [2]int{1, -2} || s.grantSum[0] != 2 {
		t.Fatalf("idle release ads=%v sum=%d", quiet, s.grantSum[0])
	}
	// Link repair: resetGrant returns a stranded tenure silently.
	s.grantOnHead(1)
	s.resetGrant(1)
	if s.granted[1] != 1 || s.grantSum[0] != 2 {
		t.Fatalf("resetGrant left granted=%v sum=%d", s.granted, s.grantSum)
	}
	// Pool 1 (VCs 2,3) was never touched.
	if s.grantSum[1] != 2 {
		t.Fatalf("pool 1 ledger moved: sum=%d", s.grantSum[1])
	}
	if err := s.check(occupancy(make([]int, len(s.granted)))); err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
}

// occupancy builds the input-VC view bufStore.check audits against:
// flat VC j holding counts[j] flits.
func occupancy(counts []int) []inVC {
	ins := make([]inVC, len(counts))
	for j, c := range counts {
		ins[j].count = c
	}
	return ins
}

// TestPooledFIFOOrder interleaves pushes, pops and purges across VCs
// sharing one pool and verifies per-VC FIFO order, slot conservation
// and injection-window independence.
func TestPooledFIFOOrder(t *testing.T) {
	const deg = 2
	cfg := testConfig()
	cfg.Org = OrgCreditShared
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	s := newBufStore(cfg, deg, nIn).(*pooledStore)
	counts := make([]int, nIn)
	push := func(i int, f flit.Flit) { s.push(i, counts[i], f); counts[i]++ }
	pop := func(i int) flit.Flit { counts[i]--; return s.pop(i) }

	fr := frame(7, 0, 2, 6, 0, 0)
	// Grow the windows first, as the router does on head accept — the
	// audit enforces occupancy within the granted window.
	s.grantOnHead(0)
	s.grantOnHead(1)
	// Interleave two VCs of the shared pool so their chains' slots mix.
	push(0, fr.FlitAt(0))
	push(1, fr.FlitAt(3))
	push(0, fr.FlitAt(1))
	push(1, fr.FlitAt(4))
	push(0, fr.FlitAt(2))
	inj := nIn - 1
	push(inj, fr.FlitAt(5))
	if err := s.check(occupancy(counts)); err != nil {
		t.Fatal(err)
	}
	if f := s.front(0); f.Seq != fr.FlitAt(0).Seq {
		t.Fatalf("front(0) seq %d", f.Seq)
	}
	for k := 0; k < 3; k++ {
		if f := pop(0); f.Seq != fr.FlitAt(k).Seq {
			t.Fatalf("VC0 pop %d returned seq %d", k, f.Seq)
		}
	}
	s.purge(1)
	counts[1] = 0
	if f := pop(inj); !f.Tail {
		t.Fatal("injection pop lost the tail flit")
	}
	if err := s.check(occupancy(counts)); err != nil {
		t.Fatal(err)
	}
	if s.freeN[0] != s.poolCap {
		t.Fatalf("pool not fully free after drain: %d/%d", s.freeN[0], s.poolCap)
	}
}

// TestPooledSnapshotCanonical pins that the snapshot encoding depends
// only on logical FIFO order, not slot placement: a store whose chains
// are scrambled across the pool round-trips to a byte-identical
// re-encoding (free lists are rebuilt canonically on load).
func TestPooledSnapshotCanonical(t *testing.T) {
	const deg = 2
	cfg := testConfig()
	cfg.Org = OrgCreditShared
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	build := func() (*pooledStore, []int) {
		s := newBufStore(cfg, deg, nIn).(*pooledStore)
		counts := make([]int, nIn)
		fr := frame(9, 1, 3, 8, 0, 1)
		push := func(i, k int) { s.push(i, counts[i], fr.FlitAt(k)); counts[i]++ }
		// Scramble slot placement: interleaved pushes with pops between.
		push(0, 0)
		push(1, 1)
		push(0, 2)
		s.pop(0)
		counts[0]--
		push(2, 3)
		push(0, 4)
		s.grantOnHead(0)
		return s, counts
	}
	encode := func(s *pooledStore, counts []int) []byte {
		var e snapshot.Encoder
		for i := 0; i < nIn; i++ {
			e.Uvarint(uint64(counts[i]))
			s.saveVC(&e, i, counts[i])
		}
		s.saveExtra(&e)
		return e.Bytes()
	}
	src, counts := build()
	raw := encode(src, counts)
	dst := newBufStore(cfg, deg, nIn).(*pooledStore)
	d := snapshot.NewDecoder(raw)
	got := make([]int, nIn)
	for i := 0; i < nIn; i++ {
		got[i] = d.Count(dst.capOf(i))
		if err := dst.loadVC(d, i, got[i]); err != nil {
			t.Fatalf("loadVC(%d): %v", i, err)
		}
	}
	if err := dst.loadExtra(d); err != nil {
		t.Fatalf("loadExtra: %v", err)
	}
	if err := dst.check(occupancy(got)); err != nil {
		t.Fatalf("restored audit: %v", err)
	}
	if again := encode(dst, got); !bytes.Equal(again, raw) {
		t.Fatal("re-encoding after restore is not byte-identical")
	}
}

func sharedTestRouter(t *testing.T) *Router {
	t.Helper()
	cfg := testConfig()
	cfg.Org = OrgCreditShared
	return New(1, topology.NewTorus(4, 1), routing.MinimalAdaptive{}, cfg)
}

// TestLoadStateRejectsCorruptSnapshots is the regression table for the
// snapshot range-validation fix: a corrupt or hostile payload must be
// rejected with a descriptive error in every place it could break the
// kernel — oversized per-VC counts, per-VC counts that are individually
// plausible but overflow the shared pool, a granted-window ledger
// outside its bounds or below the occupancy it must cover, a grant
// rotation cursor out of range, and credit/window pairs outside
// 0 <= credit <= window <= maxWindow.
func TestLoadStateRejectsCorruptSnapshots(t *testing.T) {
	save := func(r *Router) []byte {
		var e snapshot.Encoder
		r.SaveState(&e)
		return e.Bytes()
	}
	// Sanity: an unmodified snapshot restores cleanly.
	if err := sharedTestRouter(t).LoadState(snapshot.NewDecoder(save(sharedTestRouter(t)))); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	cases := []struct {
		name, wantSub string
		build         func(t *testing.T) []byte
	}{
		{"count-over-cap", "collection length", func(t *testing.T) []byte {
			// The payload's first byte is input VC 0's flit count
			// (uvarint); 100 is a single byte and far over the window cap.
			raw := save(sharedTestRouter(t))
			raw[0] = 100
			return raw
		}},
		{"pool-overflow", "overflow", func(t *testing.T) []byte {
			// Per-VC counts of 3 each pass the per-VC bound (window cap
			// 3) but three of them oversubscribe the 8-slot shared pool.
			// Built from a static-FIFO donor with BufDepth 3, whose
			// per-VC payload layout matches through the input section.
			cfg := testConfig()
			cfg.BufDepth = 3
			donor := New(1, topology.NewTorus(4, 1), routing.MinimalAdaptive{}, cfg)
			fr := frame(11, 1, 3, 9, 0, 0)
			for vc := 0; vc < 3; vc++ {
				for k := 0; k < 3; k++ {
					v := donor.in(vc/cfg.VCs, vc%cfg.VCs)
					donor.push(v, fr.FlitAt(vc*3+k))
				}
			}
			return save(donor)
		}},
		{"granted-over-cap", "granted window", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.store.(*pooledStore).granted[0] = 99
			return save(r)
		}},
		{"granted-below-occupancy", "exceeds granted", func(t *testing.T) []byte {
			// Two buffered flits against the default 1-slot grant.
			r := sharedTestRouter(t)
			fr := frame(12, 1, 3, 4, 0, 0)
			v := r.in(0, 0)
			r.push(v, fr.FlitAt(0))
			r.push(v, fr.FlitAt(1))
			return save(r)
		}},
		{"grant-sum-over-pool", "exceeds capacity", func(t *testing.T) []byte {
			// Every grant individually legal (<= cap 3) but the sum (12)
			// oversubscribes the 8-slot pool budget.
			r := sharedTestRouter(t)
			ps := r.store.(*pooledStore)
			for i := range ps.granted {
				ps.granted[i] = 3
			}
			return save(r)
		}},
		{"grant-rotation-out-of-range", "grant rotation", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.store.(*pooledStore).grantRR[0] = 9
			return save(r)
		}},
		{"credit-over-window", "outside bounds", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			ov := &r.outs[0].vcs[0]
			ov.credit = ov.window + 1
			return save(r)
		}},
		{"credit-negative", "outside bounds", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.outs[0].vcs[0].credit = -1
			return save(r)
		}},
		{"window-over-max", "outside bounds", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			ov := &r.outs[0].vcs[1]
			ov.window = 9
			ov.credit = 9
			return save(r)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.build(t)
			err := sharedTestRouter(t).LoadState(snapshot.NewDecoder(raw))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
