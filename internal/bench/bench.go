// Package bench contains one driver per table/figure of the paper's
// evaluation (§6). Each driver sets up the simulated deployment the paper
// used, runs the experiment, and returns typed rows whose shape mirrors the
// corresponding figure; cmd/icgbench prints them and EXPERIMENTS.md records
// paper-vs-measured values.
//
// All drivers take a Config controlling the time scale (latencies are
// always reported in model time, i.e. on the paper's axes) and a Quick flag
// that shrinks sample counts and durations for use in tests and smoke runs.
package bench

import (
	"time"

	"correctables/internal/cassandra"
	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
	"correctables/internal/zk"
)

// Config controls an experiment run.
type Config struct {
	// Wall selects the wall-clock simulation mode: model durations are
	// scaled to real sleeps. The default (false) is the virtual clock — a
	// deterministic discrete-event scheduler that runs every experiment at
	// CPU speed, with same-seed runs producing byte-identical results.
	Wall bool
	// Scale is the model-to-wall time scale in wall mode (default 0.25;
	// 1.0 = real time). Smaller is faster but, below ~0.1, sleep
	// granularity starts to blur sub-10ms effects. Ignored in virtual mode.
	Scale float64
	// Seed fixes all randomness.
	Seed int64
	// Quick shrinks sample counts and durations (tests, smoke runs).
	Quick bool
	// Faults selects the fault-study scenario: a catalog name
	// (faults.ScenarioNames) or "<seed>:<profile>" for a random schedule.
	// Empty means minority-partition. Only the faultstudy experiment reads
	// it; the paper's figures always run fault-free.
	Faults string
	// FaultLog prints the applied fault transitions alongside the
	// fault-study table.
	FaultLog bool
	// Check adds a consistency-checked session population to the fault
	// study: its clients run through the session API with a history
	// recorder attached, and the recorded history is verified after the
	// run (session guarantees plus per-key register linearizability).
	// faultstudy and failover read it; icgbench always checks failover.
	Check bool
	// Trace attaches the model-time span tracer and time-series registry
	// to the experiment fabric (faultstudy, failover, overload). The
	// result then carries a latency decomposition per phase, sampled
	// gauges, and a tracer exportable as Chrome trace-event JSON
	// (icgbench -trace). Tracing never perturbs model time — spans are
	// stamped from the same virtual instants the experiment already
	// observes — so traced and untraced runs report identical rows.
	Trace bool
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	return c
}

// pick returns full or quick depending on cfg.Quick.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

func (c Config) pickDur(full, quick time.Duration) time.Duration {
	if c.Quick {
		return quick
	}
	return full
}

// harness bundles the per-experiment simulation fabric.
type harness struct {
	clock netsim.Clock
	meter *netsim.Meter
	tr    *netsim.Transport
	// trc/reg are the observability plane (nil unless cfg.Trace): the
	// span tracer is installed on the transport here and threaded into
	// stores and clients by the individual drivers; gauges register on
	// reg and sample on a model-time cadence via startSampling.
	trc *trace.Tracer
	reg *trace.Registry
}

func newHarness(cfg Config) *harness {
	return newHarnessWith(cfg, netsim.DefaultLatencies())
}

// newHarnessWith builds the fabric on an explicit latency model — the sweep
// experiment scales the paper's geography up and down; everything else runs
// on the default model.
func newHarnessWith(cfg Config, lat *netsim.LatencyModel) *harness {
	var clock netsim.Clock
	if cfg.Wall {
		clock = netsim.NewClock(cfg.Scale)
	} else {
		clock = netsim.NewVirtualClock()
	}
	meter := netsim.NewMeter()
	h := &harness{
		clock: clock,
		meter: meter,
		tr:    netsim.NewTransport(clock, lat, meter, cfg.Seed+1),
	}
	if cfg.Trace {
		h.trc = trace.New()
		h.reg = trace.NewRegistry()
		h.tr.SetTrace(h.trc)
	}
	return h
}

// startSampling arms the registry's self-rescheduling probe over the
// experiment window at a horizon-relative cadence (64 samples per run,
// floored at 1ms so quick runs don't sample sub-millisecond). No-op when
// tracing is off.
func (h *harness) startSampling(horizon time.Duration) {
	if h.reg == nil {
		return
	}
	every := horizon / 64
	if every < time.Millisecond {
		every = time.Millisecond
	}
	h.reg.Start(h.clock, every, horizon)
}

// observe folds the span tracer into one latency-decomposition row per
// phase and collects the sampled gauges: the Traced block a result embeds.
// Zero when tracing is off.
func (h *harness) observe(phases []faults.Phase) Traced {
	if h.trc == nil {
		return Traced{}
	}
	t := Traced{trc: h.trc, reg: h.reg}
	for _, ph := range phases {
		t.Decomp = append(t.Decomp, decompRow(h.trc, ph.Name, ph.Start, ph.End))
	}
	t.Timeseries = h.reg.Series()
	return t
}

// drain runs the harness's background traffic (async replication, commit
// broadcasts) to completion after an experiment. Wall-clock harnesses just
// let it finish in real time.
func (h *harness) drain() {
	if vc, ok := h.clock.(*netsim.VirtualClock); ok {
		vc.Drain()
	}
}

// cassandraOpts selects the store variant under test.
type cassandraOpts struct {
	regions     []netsim.Region
	correctable bool
	confirmOpt  bool
	// replicationDelay overrides the default staleness window (0 = default).
	replicationDelay time.Duration
	// flushCost overrides the preliminary-flushing service time
	// (0 = default).
	flushCost time.Duration
	// opTimeout overrides the fault-injection operation timeout
	// (0 = default; only consulted when an interceptor is attached).
	opTimeout time.Duration
	// shards selects the cluster's token-ring shard count (0 = 1 shard,
	// the unsharded plane every pre-sharding experiment runs on).
	shards int
}

// newCassandra builds a cluster on the harness fabric with the service-time
// model used across the Cassandra experiments.
func (h *harness) newCassandra(cfg Config, opts cassandraOpts) *cassandra.Cluster {
	regions := opts.regions
	if regions == nil {
		regions = []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}
	}
	flush := opts.flushCost
	if flush == 0 {
		flush = 500 * time.Microsecond
	}
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          regions,
		Transport:        h.tr,
		Correctable:      opts.correctable,
		ConfirmationOpt:  opts.confirmOpt,
		Shards:           opts.shards,
		Workers:          4,
		ReadServiceTime:  2 * time.Millisecond,
		WriteServiceTime: 2 * time.Millisecond,
		FlushServiceTime: flush,
		ReplicationDelay: opts.replicationDelay,
		ReadRepairChance: 0.1,
		OpTimeout:        opts.opTimeout,
		Seed:             cfg.Seed,
	})
	if err != nil {
		panic("bench: " + err.Error()) // static configuration; cannot fail
	}
	return cluster
}

// zkOpts selects the ensemble variant under test.
type zkOpts struct {
	correctable bool
	leader      netsim.Region
	// opTimeout bounds client operations under fault injection (0 = default).
	opTimeout time.Duration
	// heartbeat/electionTimeout tune the recovery machinery (0 = defaults).
	// The paper's figures run fault-free, so only the failover experiment
	// sets them.
	heartbeat       time.Duration
	electionTimeout time.Duration
}

// newZK builds an ensemble on the harness fabric.
func (h *harness) newZK(cfg Config, opts zkOpts) *zk.Ensemble {
	e, err := zk.NewEnsemble(zk.Config{
		Regions:           []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion:      opts.leader,
		Transport:         h.tr,
		Correctable:       opts.correctable,
		Workers:           4,
		ServiceTime:       time.Millisecond,
		OpTimeout:         opts.opTimeout,
		HeartbeatInterval: opts.heartbeat,
		ElectionTimeout:   opts.electionTimeout,
	})
	if err != nil {
		panic("bench: " + err.Error())
	}
	return e
}
