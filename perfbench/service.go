package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crnet/internal/core"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/sim"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/traffic"
	"crnet/internal/workload"
)

// serviceWorkload drives sim.Service, the engine behind crsimd, the way
// the daemon does: Step in fixed batches, with a checkpoint round trip
// (Save, WriteFile, ReadFile, a fresh NewService, Restore) every few
// batches. The run continues on the restored service, so the final
// digest also proves that resuming changed nothing.
type serviceWorkload struct {
	k          int
	load       float64
	msgLen     int
	traceSpan  int64 // generated trace length in cycles; the trace loops
	batch      int64 // cycles per Service.Step call
	batches    int   // batches per operation
	ckptEvery  int   // batches between checkpoint round trips
	faultRate  float64
	sampleEach int64
}

// config builds the crsimd-shaped service configuration, including the
// trace generation that set-up time covers.
func (w serviceWorkload) config(seed uint64) sim.ServiceConfig {
	topo := topology.NewTorus(w.k, 2)
	spec := workload.TraceFor(topo, w.load, w.msgLen, w.traceSpan, seed, traffic.CapacityFlitsPerNode(topo))
	return sim.ServiceConfig{
		Net: network.Config{
			Topo:          topo,
			Alg:           routing.MinimalAdaptive{},
			Protocol:      core.FCR,
			Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			TransientRate: w.faultRate,
			Seed:          seed,
			Check:         true,
		},
		Trace:       workload.GenUniform(spec),
		Loop:        true,
		SampleEvery: w.sampleEach,
		SampleCap:   512,
	}
}

// serviceSteps name the five timed steps of a service round trip.
var serviceSteps = [5]string{"sim.save", "snapshot.encode_write", "snapshot.read_decode", "sim.new_service", "sim.restore"}

// serviceHooks are the optional per-batch observers of one operation.
type serviceHooks struct {
	// batchDone receives each Step batch's wall time.
	batchDone func(time.Duration)
	// afterBatch runs between batches, outside the batch timing.
	afterBatch func(svc *sim.Service)
	// checkpoint, when set, performs the round trip every ckptEvery
	// batches and returns the service to continue on.
	checkpoint func(svc *sim.Service) *sim.Service
}

// op runs one operation: a fresh service stepped through every batch.
// It returns the digest and work counters of the final state.
func (w serviceWorkload) op(cfg sim.ServiceConfig, h serviceHooks) (string, counters, error) {
	var svc *sim.Service
	err := safely(func() error {
		var err error
		if svc, err = sim.NewService(cfg); err != nil {
			return err
		}
		for i := 1; i <= w.batches; i++ {
			start := time.Now()
			err := svc.Step(w.batch)
			if h.batchDone != nil {
				h.batchDone(time.Since(start))
			}
			if err != nil {
				return err
			}
			if h.afterBatch != nil {
				h.afterBatch(svc)
			}
			if h.checkpoint != nil && i%w.ckptEvery == 0 && i < w.batches {
				svc = h.checkpoint(svc)
			}
		}
		return nil
	})
	if err != nil {
		return "", counters{}, err
	}
	st := svc.Status()
	is := svc.Network().InjectorStats()
	if st.Delivered == 0 || st.Corrupt != 0 || st.Health != "" || is.Failed != 0 || is.LateFKills != 0 {
		return "", counters{}, fmt.Errorf("integrity: delivered=%d corrupt=%d failed=%d late_fkills=%d health=%q",
			st.Delivered, st.Corrupt, is.Failed, is.LateFKills, st.Health)
	}
	c := readCounters(svc.Network())
	d, err := digest(st, c, svc.StreamHash())
	return d, c, err
}

// reference is an unbroken operation: no checkpoint round trips.
func (w serviceWorkload) reference(seed uint64) (string, error) {
	d, _, err := w.op(w.config(seed), serviceHooks{})
	return d, err
}

// measure is the untraced run: until the budget is spent, one set-up
// sample and one operation, whose batches and checkpoint round trips
// give the time samples. A calibration pass follows every batch.
func (w serviceWorkload) measure(b *bench) error {
	cfg := w.config(b.seed)
	h := serviceHooks{
		batchDone: func(d time.Duration) {
			b.timing("ns_per_cycle", "ns", float64(d.Nanoseconds())/float64(w.batch))
			b.calibrate()
		},
		checkpoint: func(svc *sim.Service) *sim.Service { return checkpointService(b, cfg, svc, nil, -1) },
	}
	b.calibrate()
	deadline := time.Now().Add(b.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		err := b.setup(1, func() error {
			_, err := sim.NewService(w.config(b.seed))
			return err
		})
		if err != nil {
			return err
		}
		startRun()
		d, _, err := w.op(cfg, h)
		b.op(fmt.Sprintf("run %d", i), d, err)
		if err == nil {
			b.record("peak_rss_mb", "MB", runPeakMB()-b.cal.mb())
		}
	}
	b.calibrate()
	w.confirm(b)
	return nil
}

// confirm checks an unpinned seed's reference digest, which came from
// runs that checkpointed, against a run that never stopped.
func (w serviceWorkload) confirm(b *bench) {
	if b.pinned == "" {
		d, err := w.reference(b.seed)
		b.op("unbroken reference run", d, err)
	}
}

// traced alternates an untraced operation with a traced one; both
// checkpoint, and both must reproduce the reference digest.
func (w serviceWorkload) traced(b *bench) error {
	cfg := w.config(b.seed)
	tr := newTracer()
	var (
		untraced, traced []float64
		cycles           int64
		op               int32
	)
	idOp, idStep, idScrape, idStatus := tr.id("op"), tr.id("sim.step"), tr.id("obs.scrape"), tr.id("sim.status")
	plain := serviceHooks{
		batchDone: func(d time.Duration) {
			untraced = append(untraced, float64(d.Nanoseconds())/float64(w.batch))
		},
		checkpoint: func(svc *sim.Service) *sim.Service { return checkpointService(b, cfg, svc, nil, -1) },
	}
	hooks := serviceHooks{
		batchDone: func(d time.Duration) {
			end := tr.now()
			tr.add(idStep, op, end-d, end)
			traced = append(traced, float64(d.Nanoseconds())/float64(w.batch))
			cycles += w.batch
		},
		afterBatch: func(svc *sim.Service) {
			t0 := tr.now()
			svc.Registry().Sample()
			t1 := tr.now()
			svc.Status()
			t2 := tr.now()
			tr.add(idScrape, op, t0, t1)
			tr.add(idStatus, op, t1, t2)
			b.record("obs.scrape_us", "us", float64((t1-t0).Nanoseconds())/1e3)
			b.record("status_us", "us", float64((t2-t1).Nanoseconds())/1e3)
		},
		checkpoint: func(svc *sim.Service) *sim.Service { return checkpointService(b, cfg, svc, tr, op) },
	}
	deadline := time.Now().Add(b.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		d, _, err := w.op(cfg, plain)
		b.op(fmt.Sprintf("untraced run %d", i), d, err)

		start := tr.now()
		op = tr.add(idOp, -1, start, start)
		before := readMem()
		d, c, err := w.op(cfg, hooks)
		after := readMem()
		tr.spans[op].end = tr.now()
		b.op(fmt.Sprintf("traced run %d", i), d, err)
		if err == nil {
			recordGo(b, before, after, w.batch*int64(w.batches))
			c.record(b)
		}
	}
	w.confirm(b)
	if cycles == 0 {
		return writeSpans(b, tr)
	}
	step := tr.total("sim.step")
	b.record("sim.step_ns_per_cycle", "ns", float64(step.Nanoseconds())/float64(cycles))
	b.record("network.step_ns_per_flit_move", "ns", stepPerFlitMove(step, b))
	// The mirrored sim.Run driver layers are inside Service.Step here.
	for _, name := range []string{"traffic.tick", "network.submit", "network.step", "network.drain", "driver.account"} {
		b.record(name+"_ns_per_cycle", "ns", 0)
	}
	b.record("trace_overhead_frac", "frac", median(traced)/median(untraced)-1)
	b.record("span_coverage_frac", "frac", tr.coverage("op"))
	return writeSpans(b, tr)
}

// checkpointService saves svc to a checkpoint file, reads it back and
// restores it into a fresh service, which must report the same status
// and stream hash and save to the same bytes. It returns the restored
// service, or svc itself when the round trip failed. With a tracer each
// call gets a span under parent; otherwise the save and restore times
// are recorded as end-to-end samples.
func checkpointService(b *bench, cfg sim.ServiceConfig, svc *sim.Service, tr *tracer, parent int32) *sim.Service {
	path := filepath.Join(b.dir, snapshot.FileName(svc.Cycle()))
	defer os.Remove(path)
	runtime.GC() // no collection owed by earlier work lands inside the timing
	t := []time.Time{time.Now()}
	mark := func() { t = append(t, time.Now()) }
	var (
		payload []byte
		fresh   *sim.Service
	)
	err := safely(func() error {
		payload = svc.Save()
		mark()
		if err := snapshot.WriteFile(path, svc.Cycle(), payload); err != nil {
			return err
		}
		mark()
		_, got, err := snapshot.ReadFile(path)
		if err != nil {
			return err
		}
		mark()
		if fresh, err = sim.NewService(cfg); err != nil {
			return err
		}
		mark()
		if err := fresh.Restore(got); err != nil {
			return err
		}
		mark()
		switch {
		case fresh.Status() != svc.Status():
			return fmt.Errorf("restored status differs")
		case !bytes.Equal(fresh.Save(), payload):
			return fmt.Errorf("restored service saves to different bytes")
		}
		return nil
	})
	b.check(fmt.Sprintf("checkpoint at cycle %d", svc.Cycle()), err)
	if err != nil {
		return svc
	}
	if err := recordCheckpoint(b, tr, parent, t, path, len(payload), serviceSteps); err != nil {
		b.check("checkpoint file size", err)
	}
	return fresh
}
