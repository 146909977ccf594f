package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"correctables/internal/cassandra"
	"correctables/internal/faults"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// FaultStudyRow is one phase of the fault study: weak-vs-strong latency,
// availability and divergence. Completed operations are bucketed by the
// phase they started in; failed ones by the phase their timeout fired in,
// so a fault's casualties are charged to the fault's own row rather than
// to the baseline an op happened to start under. Latencies are model-time
// milliseconds (the paper's axes).
type FaultStudyRow struct {
	Phase   string  `json:"phase"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`

	Reads      int64 `json:"reads"`
	ReadErrors int64 `json:"read_errors"`
	Writes     int64 `json:"writes"`
	WriteErr   int64 `json:"write_errors"`
	Prelims    int64 `json:"prelim_views"`

	PrelimMeanMs float64 `json:"prelim_mean_ms"`
	PrelimP99Ms  float64 `json:"prelim_p99_ms"`
	FinalMeanMs  float64 `json:"final_mean_ms"`
	FinalP99Ms   float64 `json:"final_p99_ms"`
	UpdateMeanMs float64 `json:"update_mean_ms"`

	// ReadAvailabilityPct is the percentage of attempted reads whose final
	// view arrived within the operation timeout. Preliminary views keep
	// flowing even for reads whose final times out — the paper's asymmetry.
	ReadAvailabilityPct float64 `json:"read_availability_pct"`
	DivergencePct       float64 `json:"divergence_pct"`
	// DroppedMsgs counts messages lost to the fault schedule (severed or
	// dropped) during the phase, from the meter's dropped counters.
	DroppedMsgs int64 `json:"dropped_msgs"`
	// HintedMsgs counts async replication sends the coordinator buffered as
	// hints during the phase instead of losing them to the fault — hinted
	// handoff's share of the would-be drops.
	HintedMsgs int64 `json:"hinted_msgs"`
	// Rejected/Shed/Retried are the meter's admission-outcome counters
	// diffed at phase boundaries (attempts, not operations) — zero unless
	// an admission gate or retry policy fronts a population, but always
	// reported so fault rows and overload rows read the same way.
	Rejected int64 `json:"rejected_attempts"`
	Shed     int64 `json:"shed_attempts"`
	Retried  int64 `json:"retried_attempts"`
}

// FaultStudyResult is the fault study's full output; it marshals directly
// to BENCH_faultstudy.json.
type FaultStudyResult struct {
	Scenario    string          `json:"scenario"`
	Description string          `json:"description"`
	UnitMs      float64         `json:"unit_ms"`
	OpTimeoutMs float64         `json:"op_timeout_ms"`
	Threads     int             `json:"threads"`
	Seed        int64           `json:"seed"`
	Rows        []FaultStudyRow `json:"rows"`
	// Transitions is the injector's applied-transition log ("4s: partition
	// {eu-frankfurt eu-ireland} | {us-virginia}"), the replay record.
	Transitions []string `json:"transitions"`
	// Check is the consistency-check report (Config.Check runs only).
	Check *CheckReport `json:"check,omitempty"`
	Traced
}

// Violations implements Report.
func (res *FaultStudyResult) Violations() int { return res.Check.Violations() }

// FaultStudy runs YCSB workload B against Correctable Cassandra (CC3:
// quorum 3, so the strong view needs every region) under a fault schedule,
// and reports per-phase weak-vs-strong latency, availability and
// divergence. The scenario comes from cfg.Faults — a catalog name or
// "<seed>:<profile>" for a random schedule — defaulting to
// minority-partition, whose partition and crash phases demonstrate the
// paper's headline asymmetry: preliminary (weak) views ride the live
// client<->coordinator link unperturbed while final (strong) views stall
// on the severed region and degrade or time out with faults.ErrUnreachable.
func FaultStudy(cfg Config) (*FaultStudyResult, error) {
	cfg = cfg.withDefaults()
	unit := cfg.pickDur(2*time.Second, 300*time.Millisecond)
	spec := cfg.Faults
	if spec == "" {
		spec = "minority-partition"
	}
	scen, err := faults.ParseSpec(spec, unit)
	if err != nil {
		return nil, err
	}
	// One unit shorter than the catalog's 4u partition/crash windows: reads
	// that start early in a fault window exhaust the timeout and fail with
	// faults.ErrUnreachable (the availability dip), while later ones stall
	// until the heal and complete with degraded final latency (the latency
	// story) — the study shows both failure modes.
	opTimeout := 3 * unit
	threads := cfg.pick(12, 6)

	w := newWorld(cfg)
	w.inject(scen.Schedule)
	cluster := w.newCassandra(cassandraOpts{correctable: true, opTimeout: opTimeout})
	cluster.SetTrace(w.trc)
	wl := workloadByName("B", ycsb.DistZipfian, 1000, 1024)
	preloadDataset(cluster, wl)

	// The sampled time-series (Config.Trace): coordinator backpressure,
	// fault-schedule message loss, and the hinted-handoff backlog, probed
	// on a horizon-relative cadence by the registry's model-time ticker.
	coord := cluster.Replica(netsim.FRK).Server()
	w.reg.Gauge("coord_queue_delay_ms", func() float64 {
		return metrics.Ms(coord.QueueDelay())
	})
	w.reg.Gauge("dropped_msgs", func() float64 { return float64(w.droppedMsgs()) })
	w.reg.Gauge("hint_backlog", func() float64 {
		st := cluster.HintStats()
		return float64(st.Queued - st.Replayed)
	})
	w.reg.Gauge("client_msgs", func() float64 {
		return float64(w.meter.Class(netsim.LinkClient).Messages)
	})
	w.startSampling(scen.Horizon)

	// Cumulative dropped-message, queued-hint and admission-outcome probes
	// at phase boundaries.
	probe := w.probePhases(scen.Phases, func() int64 { return int64(cluster.HintStats().Queued) })

	// The measured population: IRL clients on the FRK coordinator (the
	// paper's remote-contact deployment), closed loop until the scenario
	// horizon.
	client := cassandra.NewClient(cluster, netsim.IRL, netsim.FRK)
	gen := wl.NewGenerator()
	led := make(ledger, threads)

	// A background writer population on the IRL coordinator keeps foreign
	// writes flowing: the measured coordinator (FRK) learns of them only
	// through asynchronous replication, which is what gives preliminary
	// views something to diverge from — one population writing through its
	// own coordinator would never observe staleness (cf. runGroups).
	bgWriter := cassandra.NewClient(cluster, netsim.IRL, netsim.IRL)
	for t := 0; t < threads/3+1; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 7_777_777 + int64(t)*1_000_003))
		w.until(scen.Horizon, 0, func() {
			_ = bgWriter.Write(ycsb.Key(gen.Next(rng)), wl.Value(rng), 1)
		})
	}
	// The checked population (Config.Check): session clients running the
	// same YCSB mix through the full invoke pipeline — sessions enforcing
	// read-your-writes/monotonic reads, a history recorder observing every
	// op — on their own keyspace, so the recorded histories are closed
	// worlds the checkers can verify completely. Half contact the FRK
	// coordinator, half IRL, which makes cross-coordinator staleness (and
	// hence the session machinery) actually exercise under faults.
	checkClients := 0
	if cfg.Check {
		checkClients = cfg.pick(6, 4)
		checkKeys := 24
		ctx := context.Background()
		for t := 0; t < checkClients; t++ {
			coord := netsim.FRK
			if t%2 == 1 {
				coord = netsim.IRL
			}
			cc := cassandra.NewClient(cluster, netsim.IRL, coord)
			sess := w.session(cassandra.NewBinding(cc, cassandra.BindingConfig{StrongQuorum: 3}),
				fmt.Sprintf("sess-%02d", t))
			rng := rand.New(rand.NewSource(cfg.Seed + 5_555_557 + int64(t)*1_000_003))
			w.until(scen.Horizon, 0, func() {
				key := fmt.Sprintf("chk-%03d", rng.Intn(checkKeys))
				if rng.Float64() < 0.65 {
					_, _ = sess.Get(ctx, key).Final(ctx)
				} else {
					_, _ = sess.Put(ctx, key, wl.Value(rng)).Final(ctx)
				}
			})
		}
	}
	for t := 0; t < threads; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		w.until(scen.Horizon, 0, func() {
			now := w.clock.Now()
			key := ycsb.Key(gen.Next(rng))
			op := opRecord{start: now}
			if rng.Float64() < wl.ReadProportion {
				op.read = true
				var confirmed bool
				op.err = client.Read(key, 3, true, func(v cassandra.ReadView) {
					if v.Final {
						op.final = w.clock.Now() - now
						confirmed = v.Confirmed
					} else {
						op.hasPrelim = true
						op.prelim = w.clock.Now() - now
					}
				})
				op.diverged = op.hasPrelim && op.err == nil && !confirmed
			} else {
				op.err = client.Write(key, wl.Value(rng), 1)
				op.final = w.clock.Now() - now
			}
			op.end = w.clock.Now()
			led[t] = append(led[t], op)
		})
	}
	w.finish()

	res := &FaultStudyResult{
		Scenario:    scen.Name,
		Description: scen.Description,
		UnitMs:      metrics.Ms(unit),
		OpTimeoutMs: metrics.Ms(opTimeout),
		Threads:     threads,
		Seed:        cfg.Seed,
		Transitions: w.transitions(),
	}
	if cfg.Check {
		res.Check = buildCheckReport(w.rec, checkClients, "registers")
	}
	for i, ops := range led.byPhase(scen.Phases) {
		ph := scen.Phases[i]
		row := FaultStudyRow{Phase: ph.Name, StartMs: metrics.Ms(ph.Start), EndMs: metrics.Ms(ph.End)}
		prelim, final, update := metrics.NewHistogram(), metrics.NewHistogram(), metrics.NewHistogram()
		var completed, diverged, divergeBase int64
		for _, op := range ops {
			if op.read {
				row.Reads++
				if op.hasPrelim {
					row.Prelims++
					prelim.Record(op.prelim)
				}
				if op.err != nil {
					row.ReadErrors++
				} else {
					completed++
					final.Record(op.final)
					if op.hasPrelim {
						divergeBase++
						if op.diverged {
							diverged++
						}
					}
				}
			} else {
				row.Writes++
				if op.err != nil {
					row.WriteErr++
				} else {
					update.Record(op.final)
				}
			}
		}
		row.PrelimMeanMs = metrics.Ms(prelim.Mean())
		row.PrelimP99Ms = metrics.Ms(prelim.Percentile(99))
		row.FinalMeanMs = metrics.Ms(final.Mean())
		row.FinalP99Ms = metrics.Ms(final.Percentile(99))
		row.UpdateMeanMs = metrics.Ms(update.Mean())
		row.ReadAvailabilityPct = 100 * metrics.Ratio(completed, row.Reads)
		row.DivergencePct = 100 * metrics.Ratio(diverged, divergeBase)
		d := probe.delta(i)
		row.DroppedMsgs, row.HintedMsgs = d.dropped, d.hinted
		row.Rejected, row.Shed, row.Retried = d.load.Rejected, d.load.Shed, d.load.Retried
		res.Rows = append(res.Rows, row)
	}
	res.Traced = w.observe(scen.Phases)
	return res, nil
}
