package main

import (
	"errors"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// The store service model every workload shares (the paper's deployment:
// one replica per region in FRK, IRL and VRG).
var regions = []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}

const (
	replicaWorkers = 4
	serviceTime    = 2 * time.Millisecond   // cassandra read/write service
	flushTime      = 500 * time.Microsecond // preliminary flush
	readRepair     = 0.1
	zkServiceTime  = time.Millisecond
	// clusterSeed fixes the deployment itself: the cassandra token ring's
	// vnode placement and the read-repair draws. It is part of the system
	// under test, not of its inputs; the workload seed varies arrivals, keys
	// and network jitter over one fixed deployment.
	clusterSeed = 1
	// latencyLimit is the model-time bound a request's final views must
	// meet for its ops to count as goodput.
	latencyLimit = 250 * time.Millisecond
)

// fabric is one world's simulation substrate: a virtual clock, the metered
// transport, and in a traced run the model-time tracer and gauge registry.
type fabric struct {
	clock *netsim.VirtualClock
	meter *netsim.Meter
	tr    *netsim.Transport
	trc   *trace.Tracer   // nil untraced
	reg   *trace.Registry // nil untraced
	p     *probe          // nil untraced
}

func newFabric(seed int64, p *probe) *fabric {
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	f := &fabric{
		clock: clock,
		meter: meter,
		tr:    netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, seed+1),
		p:     p,
	}
	if p != nil {
		f.trc = trace.New()
		f.reg = trace.NewRegistry()
		f.tr.SetTrace(f.trc)
	}
	return f
}

// clientOpts are the options every benchmark client gets: its label, and
// in a traced run the span tracer and the view-counting observer.
func (f *fabric) clientOpts(label string, obs *viewObserver, extra ...binding.Option) []binding.Option {
	opts := append([]binding.Option{binding.WithLabel(label)}, extra...)
	if f.p != nil {
		opts = append(opts, binding.WithTracer(f.trc), binding.WithObserver(obs))
	}
	return opts
}

// outcome is what one world run produced: the request log and checked
// history (model time), plus the per-layer figures the workload can read
// off its own layers.
type outcome struct {
	reqs    []request
	elapsed time.Duration // model time from start to the last completion
	// doneOps counts every completed op of the run, checked population
	// included: the base of every per-op ratio.
	doneOps int64
	check   checkResult
	// shape lists failed paper-shape assertions.
	shape []string
	// unexpected holds the first unexpected request error, if any.
	unexpected string
	// layers are the model-side per-layer metrics; main adds host ones.
	layers map[string]float64
	// spawns is the clock's goroutine spawn count over the run.
	spawns uint64
	// clientBytes is the client-link traffic (the paper's bandwidth axis).
	clientBytes int64
	// trc and reg are the traced run's tracer and gauges (nil untraced).
	trc    *trace.Tracer
	reg    *trace.Registry
	digest [32]byte
}

// classify maps a request error onto an outcome kind: refusals the
// workload allows are outRefused, anything else outUnexpected.
func classify(err error, allowed ...error) outcomeKind {
	if err == nil {
		return outOK
	}
	for _, a := range allowed {
		if errors.Is(err, a) {
			return outRefused
		}
	}
	return outUnexpected
}

// noteUnexpected keeps the first unexpected error for the report.
func (o *outcome) noteUnexpected(err error, kind outcomeKind) {
	if kind == outUnexpected && o.unexpected == "" {
		o.unexpected = err.Error()
	}
}

// netLayers fills the netsim and trace-derived metrics every workload
// shares. ops is the completed-op count the ratios are per.
func (f *fabric) netLayers(layers map[string]float64, ops int64) {
	cl, rp := f.meter.Class(netsim.LinkClient), f.meter.Class(netsim.LinkReplica)
	dc, dr := f.meter.Dropped(netsim.LinkClient), f.meter.Dropped(netsim.LinkReplica)
	layers["netsim.client_msgs_per_op"] = perOp(float64(cl.Messages), ops)
	layers["netsim.replica_msgs_per_op"] = perOp(float64(rp.Messages), ops)
	layers["netsim.replica_bytes_per_op"] = perOp(float64(rp.Bytes), ops)
	layers["netsim.dropped_msgs"] = float64(dc.Messages + dr.Messages)
	if f.trc == nil {
		return
	}
	tt := f.totals()
	layers["netsim.queue_ms_per_op"] = perOp(tt.Ms(trace.CatQueue), ops)
	layers["netsim.server_ms_per_op"] = perOp(tt.Ms(trace.CatServer), ops)
	layers["netsim.net_client_ms_per_op"] = perOp(tt.Ms(trace.CatNetClient), ops)
	layers["netsim.net_replica_ms_per_op"] = perOp(tt.Ms(trace.CatNetReplica), ops)
	layers["cassandra.repair_ms_per_op"] = perOp(tt.Ms(trace.CatRepair), ops)
	layers["cassandra.batch_ms_per_op"] = perOp(tt.Ms(trace.CatBatch), ops)
	layers["zk.election_ms"] = tt.Ms(trace.CatElection)
	spans, instants := f.trc.Counts()
	layers["trace.spans"] = float64(spans + instants)
}

// totals sums the tracer's spans per category over the whole run, drain
// included. Spans still open then (messages a fault dropped) are clipped
// at that instant.
func (f *fabric) totals() trace.Totals {
	return f.trc.CategoryTotals(0, f.clock.Now())
}

// serverLayers fills utilization and handled-request metrics from the
// replicas' servers.
func serverLayers(layers map[string]float64, servers []*netsim.Server, ops int64, elapsed time.Duration) {
	var handled int64
	var utils []float64
	for _, s := range servers {
		handled += s.Handled()
		if elapsed > 0 {
			utils = append(utils, 100*s.BusyModelTime().Seconds()/(float64(replicaWorkers)*elapsed.Seconds()))
		}
	}
	layers["cassandra.replica_reqs_per_op"] = perOp(float64(handled), ops)
	layers["netsim.util_mean_pct"] = mean(utils)
	if len(utils) > 0 {
		layers["netsim.util_max_pct"] = sortedCopy(utils)[len(utils)-1]
	}
}

// faultLayers records the fault schedule's applied transitions.
func faultLayers(layers map[string]float64, inj *faults.Injector) {
	layers["faults.transitions"] = float64(len(inj.Log()))
}

// checkResult is the verdict of the history checkers on a recorded
// population.
type checkResult struct {
	ops          int
	violations   []string
	inconclusive []string
	digest       [32]byte
}

// checkHistory runs the session checkers and the per-object
// linearizability search ("registers" or "queues") over a recorded
// history, timing each under the probe.
func checkHistory(rec *history.Recorder, model string, p *probe) checkResult {
	ops := rec.Ops()
	res := checkResult{ops: len(ops)}
	if n := rec.Collisions(); n > 0 {
		res.violations = append(res.violations, "history: client-label collisions")
	}
	p.measure(spanSessCheck, func() {
		for _, check := range []func([]history.Op) []history.Violation{
			history.CheckSessionGuarantees, history.CheckCrossObjectWFR, history.CheckCausalCut,
		} {
			for _, v := range check(ops) {
				res.violations = append(res.violations, v.String())
			}
		}
	})
	p.measure(spanLinCheck, func() {
		var vs []history.Violation
		if model == "queues" {
			vs, res.inconclusive = history.CheckQueues(ops, 0)
		} else {
			vs, res.inconclusive = history.CheckRegisters(ops, 0)
		}
		for _, v := range vs {
			res.violations = append(res.violations, v.String())
		}
	})
	d := newDigest()
	d.bytes(history.SerializeOps(ops))
	res.digest = d.sum()
	return res
}

// finish computes the outcome digest over everything model-side.
func (o *outcome) finish(f *fabric) {
	o.clientBytes = f.meter.Class(netsim.LinkClient).Bytes
	o.trc, o.reg = f.trc, f.reg
	d := newDigest()
	d.requests(o.reqs)
	d.int(int64(o.elapsed))
	d.h.Write(o.check.digest[:])
	for _, class := range []string{netsim.LinkClient, netsim.LinkReplica} {
		s, x := f.meter.Class(class), f.meter.Dropped(class)
		d.int(s.Bytes)
		d.int(s.Messages)
		d.int(x.Messages)
	}
	d.int(int64(o.spawns))
	o.digest = d.sum()
}
