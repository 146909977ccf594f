// Package bench contains one driver per table/figure of the paper's
// evaluation (§6). Each driver sets up the simulated deployment the paper
// used, runs the experiment, and returns typed rows whose shape mirrors the
// corresponding figure; cmd/icgbench prints them and writes them as JSON
// artifacts (the committed BENCH_*.json files are recorded baselines).
// Every driver runs on a world (world.go): one simulated deployment that
// owns the fabric, faults, recorder, gates, lifecycle and phase ledger.
//
// All drivers take a Config controlling the time scale (latencies are
// always reported in model time, i.e. on the paper's axes) and a Quick flag
// that shrinks sample counts and durations for use in tests and smoke runs.
package bench

import (
	"time"

	"correctables/internal/cassandra"
	"correctables/internal/netsim"
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
	// Check adds a consistency-checked session population to the fault
	// study: its clients run through the session API with a history
	// recorder attached, and the recorded history is verified after the
	// run (session guarantees plus per-key register linearizability).
	// Only faultstudy reads it; the other checked experiments always check.
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

// newCassandra builds a cluster on the world's fabric with the service-time
// model used across the Cassandra experiments.
func (w *world) newCassandra(opts cassandraOpts) *cassandra.Cluster {
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
		Transport:        w.tr,
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
		Seed:             w.cfg.Seed,
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

// newZK builds an ensemble on the world's fabric.
func (w *world) newZK(opts zkOpts) *zk.Ensemble {
	e, err := zk.NewEnsemble(zk.Config{
		Regions:           []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion:      opts.leader,
		Transport:         w.tr,
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
