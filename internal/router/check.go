package router

import "fmt"

// Incremental checking. Every method that can change router state
// begins with touch, which marks the router dirty. A router no method
// touched still holds the state that passed its last check, so checking
// only the dirty routers after a cycle is as strong as checking every
// router. The owner installs a list with TrackDirty; a router joins it
// on the clean-to-dirty edge, so finding the routers to check costs
// O(touched), with no scan over the whole network. A router without a
// list is dirty from construction on and never joins anything: touch
// is then one predictable branch.

// touch marks the router dirty.
//
//cr:hotpath first statement of every mutating method
func (r *Router) touch() {
	if !r.dirty {
		r.markDirty()
	}
}

// markDirty is touch's clean-to-dirty edge, once per router per check
// round.
//
//cr:hotpath once per touched router per cycle when checking
func (r *Router) markDirty() {
	r.dirty = true
	if r.dirtyLog != nil {
		*r.dirtyLog = append(*r.dirtyLog, r)
	}
}

// TrackDirty installs log as the router's dirty list and appends the
// router to it: construction counts as a mutation, so a fresh router is
// checked once. From then on the router appends itself whenever a
// mutating method runs on it after a ClearDirty. The owner checks and
// clears the listed routers and truncates the list; it must keep log
// valid for the router's lifetime.
func (r *Router) TrackDirty(log *[]*Router) {
	r.dirtyLog = log
	r.dirty = false
	r.markDirty()
}

// ClearDirty marks the router clean: its next mutation re-enters the
// dirty list.
func (r *Router) ClearDirty() { r.dirty = false }

// CheckInvariants verifies the router's internal consistency and returns
// a descriptive error on the first violation. With Config.Check the
// network runs it after every cycle on the routers marked dirty.
//
// Invariants:
//   - buffer occupancy within [0, the VC's organization cap]
//   - network output credits within [0, window]; static FIFO pins the
//     window at BufDepth, the shared organizations bound it by
//     [reserve, maxWindow]. The lower bound is unconditional because
//     windows only shrink on a worm's normal release, which is
//     synchronous with its final tail refund (kill teardowns freeze
//     the tenure instead of shrinking — see Router.purge).
//   - every held output VC's owner input VC is active, claims the same
//     worm, and points back at the output
//   - every routed input VC's allocated output VC is held by its worm
//   - inactive input VCs hold no flits and no allocation
//   - the cached buffered-flit counter matches the sum over input VCs
//   - the buffer store's internal audit passes: slot conservation (per
//     pool, Σ VC chain lengths + free-list length == pool size), chain
//     lengths matching the router's occupancy counts, and the granted-
//     window ledger within bounds (shared organizations)
//
// Every error return is a failure path: the first violation ends the
// run, so its message may allocate.
//
//cr:hotpath runs on every dirty router every cycle under Config.Check
func (r *Router) CheckInvariants() error {
	total := 0
	for i := range r.ins {
		v := &r.ins[i]
		total += v.count
		if v.count < 0 || v.count > r.store.capOf(i) {
			//cr:alloc failure path: the first violation ends the run
			return fmt.Errorf("router %d: input (%d,%d) occupancy %d", r.id, v.p, v.vc, v.count)
		}
		if !v.active {
			if v.count != 0 {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("router %d: inactive input (%d,%d) holds %d flits", r.id, v.p, v.vc, v.count)
			}
			if v.routed {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("router %d: inactive input (%d,%d) holds an allocation", r.id, v.p, v.vc)
			}
			continue
		}
		if v.routed {
			o := &r.outs[v.outP].vcs[v.outV]
			if !o.held || o.worm != v.worm || o.ownerP != v.p || o.ownerV != v.vc {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("router %d: input (%d,%d) allocation to (%d,%d) inconsistent",
					r.id, v.p, v.vc, v.outP, v.outV)
			}
		}
	}
	if total != r.buffered {
		//cr:alloc failure path: the first violation ends the run
		return fmt.Errorf("router %d: buffered counter %d, actual %d", r.id, r.buffered, total)
	}
	for p := range r.outs {
		out := &r.outs[p]
		for vc := range out.vcs {
			o := &out.vcs[vc]
			if !out.ejection && (o.window < r.wLo || o.window > r.wHi) {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("router %d: output (%d,%d) window %d outside [%d,%d]",
					r.id, p, vc, o.window, r.wLo, r.wHi)
			}
			if !out.ejection && (o.credit < 0 || o.credit > o.window) {
				//cr:alloc failure path: the first violation ends the run
				return fmt.Errorf("router %d: output (%d,%d) credit %d with window %d",
					r.id, p, vc, o.credit, o.window)
			}
			if o.held {
				v := r.in(o.ownerP, o.ownerV)
				if !v.active || v.worm != o.worm || !v.routed || v.outP != p || v.outV != vc {
					//cr:alloc failure path: the first violation ends the run
					return fmt.Errorf("router %d: output (%d,%d) owner (%d,%d) inconsistent",
						r.id, p, vc, o.ownerP, o.ownerV)
				}
			}
		}
	}
	if err := r.store.check(r.ins); err != nil {
		//cr:alloc failure path: the first violation ends the run
		return fmt.Errorf("router %d: buffer store: %w", r.id, err)
	}
	return nil
}

// CreditOf returns the credit count of output (p, vc); used by
// network-level conservation checks.
func (r *Router) CreditOf(p, vc int) int { return r.outs[p].vcs[vc].credit }

// BufferedAt returns the buffered flit count of input (p, vc); used by
// network-level conservation checks.
func (r *Router) BufferedAt(p, vc int) int { return r.in(p, vc).count }

// InputActive reports whether input (p, vc) hosts a worm.
func (r *Router) InputActive(p, vc int) bool { return r.in(p, vc).active }

// BufferedFlits returns the total number of flits buffered in the
// router, for network-level conservation checks. The count is maintained
// incrementally (CheckInvariants verifies it against the per-VC sums).
func (r *Router) BufferedFlits() int { return r.buffered }

// BufferCapacity returns the total flit capacity across every input VC
// (network and injection buffers): the denominator that turns
// BufferedFlits into an occupancy fraction. The slot budget is the same
// for every buffer organization.
func (r *Router) BufferCapacity() int { return r.store.totalSlots() }

// ActiveWormCount returns how many input VCs currently host a worm.
func (r *Router) ActiveWormCount() int {
	n := 0
	for i := range r.ins {
		if r.ins[i].active {
			n++
		}
	}
	return n
}
