package bench

import (
	"time"

	"correctables/internal/ycsb"
)

// Ablation experiments for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: they isolate the mechanism behind a result by
// sweeping the single parameter that produces it.

// AblationResult is the ablations experiment's output: both sweeps.
type AblationResult struct {
	ReplicationLag []AblationLagRow   `json:"replication_lag"`
	FlushCost      []AblationFlushRow `json:"flush_cost"`
}

// Ablations runs the replication-lag ablation, then the flush-cost one.
func Ablations(cfg Config) AblationResult {
	return AblationResult{
		ReplicationLag: ablationReplicationLag(cfg),
		FlushCost:      ablationFlushCost(cfg),
	}
}

// AblationLagRow is one datapoint of the replication-lag ablation: how the
// staleness window (asynchronous replication delay) drives preliminary/
// final divergence. Fig 7's divergence is entirely produced by this lag;
// at zero lag the preliminary view is almost always correct and ICG costs
// almost nothing.
type AblationLagRow struct {
	// ReplicationDelay is the swept staleness window.
	ReplicationDelay time.Duration `json:"replication_delay_ns"`
	// DivergencePct is measured under workload A-Latest, the paper's
	// worst case.
	DivergencePct float64 `json:"divergence_pct"`
	Reads         int64   `json:"reads"`
}

// ablationReplicationLag sweeps the asynchronous-replication delay and
// measures divergence under the Fig 7 worst-case conditions (workload A,
// Latest distribution, 1K objects).
func ablationReplicationLag(cfg Config) []AblationLagRow {
	cfg = cfg.withDefaults()
	dur := cfg.pickDur(10*time.Second, 2*time.Second) // model time
	threadsTotal := cfg.pick(120, 24)
	delays := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	if cfg.Quick {
		delays = []time.Duration{0, 40 * time.Millisecond}
	}

	var rows []AblationLagRow
	for _, delay := range delays {
		wl := ycsb.WorkloadA(ycsb.DistLatest, 1000, 1024)
		w := newWorld(cfg)
		d := delay
		if d == 0 {
			d = time.Nanosecond // Config treats 0 as "use default"
		}
		cluster := w.newCassandra(cassandraOpts{correctable: true, replicationDelay: d})
		preloadDataset(cluster, wl)
		results := w.runGroups(cluster, wl, 2, true, threadsTotal/3, ycsb.Options{
			Duration: dur,
			Seed:     cfg.Seed,
		})
		w.finish()
		var diverged, prelims int64
		for _, r := range results {
			diverged += r.Diverged
			prelims += r.PrelimReads
		}
		pct := 0.0
		if prelims > 0 {
			pct = 100 * float64(diverged) / float64(prelims)
		}
		rows = append(rows, AblationLagRow{ReplicationDelay: delay, DivergencePct: pct, Reads: prelims})
	}
	return rows
}

// AblationFlushRow is one datapoint of the preliminary-flushing ablation:
// the extra coordinator service time per ICG read is what costs CC its few
// percent of throughput in Fig 6.
type AblationFlushRow struct {
	// FlushCost is the swept per-read coordinator overhead.
	FlushCost time.Duration `json:"flush_cost_ns"`
	// Throughput is total attained ops/s under saturation-level load.
	Throughput float64 `json:"throughput_ops"`
	// DropPct is the throughput cost relative to the zero-flush-cost run.
	DropPct float64 `json:"drop_pct"`
}

// ablationFlushCost sweeps the preliminary-flushing service time and
// measures attained throughput under saturating load (workload C so that
// every operation exercises the flush path).
func ablationFlushCost(cfg Config) []AblationFlushRow {
	cfg = cfg.withDefaults()
	dur := cfg.pickDur(10*time.Second, 2*time.Second) // model time
	threadsTotal := cfg.pick(96, 24)
	costs := []time.Duration{time.Nanosecond, 250 * time.Microsecond,
		500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
	if cfg.Quick {
		costs = []time.Duration{time.Nanosecond, 2 * time.Millisecond}
	}

	var rows []AblationFlushRow
	var baseline float64
	for _, cost := range costs {
		wl := ycsb.WorkloadC(ycsb.DistZipfian, 1000, 1024)
		w := newWorld(cfg)
		cluster := w.newCassandra(cassandraOpts{correctable: true, flushCost: cost})
		preloadDataset(cluster, wl)
		results := w.runGroups(cluster, wl, 2, true, threadsTotal/3, ycsb.Options{
			Duration: dur,
			Seed:     cfg.Seed,
		})
		w.finish()
		var tp float64
		for _, r := range results {
			tp += r.ThroughputOps
		}
		row := AblationFlushRow{FlushCost: cost, Throughput: tp}
		if baseline == 0 {
			baseline = tp
		} else {
			row.DropPct = 100 * (baseline - tp) / baseline
		}
		rows = append(rows, row)
	}
	return rows
}
