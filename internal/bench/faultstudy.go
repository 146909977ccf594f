package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/faults"
	"correctables/internal/history"
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

	// faultLog appends the transition log to Text (Config.FaultLog).
	faultLog bool
}

// Violations implements Report.
func (res *FaultStudyResult) Violations() int { return res.Check.Violations() }

// faultOp is one operation's record in the study.
type faultOp struct {
	start     time.Duration
	end       time.Duration
	isRead    bool
	err       bool
	hasPrelim bool
	prelim    time.Duration
	final     time.Duration
	diverged  bool
}

// at is the instant that buckets the operation into a phase: completed
// operations belong to the phase they started in (their latency reflects
// the conditions they ran under), failed ones to the phase their timeout
// fired in (a read that starts just before a fault window and times out
// inside it is that fault's casualty, not the healthy baseline's).
func (op faultOp) at() time.Duration {
	if op.err {
		return op.end
	}
	return op.start
}

// phaseOf maps a model instant into its phase, clamping instants past the
// last phase (ops that die during the drain) into it.
func phaseOf(phases []faults.Phase, at time.Duration) int {
	for i, ph := range phases {
		if at < ph.End {
			return i
		}
	}
	return len(phases) - 1
}

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

	h := newHarness(cfg)
	inj := faults.Attach(h.tr, scen.Schedule, cfg.Seed+3)
	cluster := h.newCassandra(cfg, cassandraOpts{correctable: true, opTimeout: opTimeout})
	cluster.SetTrace(h.trc)
	w := workloadByName("B", ycsb.DistZipfian, 1000, 1024)
	preloadDataset(cluster, w)

	// The sampled time-series (Config.Trace): coordinator backpressure,
	// fault-schedule message loss, and the hinted-handoff backlog, probed
	// on a horizon-relative cadence by the registry's model-time ticker.
	if h.reg != nil {
		coord := cluster.Replica(netsim.FRK).Server()
		h.reg.Gauge("coord_queue_delay_ms", func() float64 {
			return metrics.Ms(coord.QueueDelay())
		})
		h.reg.Gauge("dropped_msgs", func() float64 {
			d := h.meter.SnapshotDropped()
			return float64(d[netsim.LinkClient].Messages + d[netsim.LinkReplica].Messages)
		})
		h.reg.Gauge("hint_backlog", func() float64 {
			st := cluster.HintStats()
			return float64(st.Queued - st.Replayed)
		})
		h.reg.Gauge("client_msgs", func() float64 {
			return float64(h.meter.Class(netsim.LinkClient).Messages)
		})
		h.startSampling(scen.Horizon)
	}

	// Cumulative dropped-message, queued-hint and admission-outcome probes
	// at phase boundaries, armed before traffic so boundary callbacks
	// interleave deterministically.
	droppedAt := make([]int64, len(scen.Phases))
	hintedAt := make([]int64, len(scen.Phases))
	loadAt := make([]netsim.LoadStats, len(scen.Phases))
	for i, ph := range scen.Phases {
		i := i
		h.clock.RunAt(ph.End, func() {
			dropped := h.meter.SnapshotDropped()
			droppedAt[i] = dropped[netsim.LinkClient].Messages + dropped[netsim.LinkReplica].Messages
			hintedAt[i] = int64(cluster.HintStats().Queued)
			loadAt[i] = h.meter.Load(netsim.LinkClient)
		})
	}

	// The measured population: IRL clients on the FRK coordinator (the
	// paper's remote-contact deployment), closed loop until the scenario
	// horizon. Per-thread record shards keep the loop contention-free and
	// the merge order deterministic.
	client := cassandra.NewClient(cluster, netsim.IRL, netsim.FRK)
	gen := w.NewGenerator()
	shards := make([][]faultOp, threads)
	g := h.clock.NewGroup()

	// A background writer population on the IRL coordinator keeps foreign
	// writes flowing: the measured coordinator (FRK) learns of them only
	// through asynchronous replication, which is what gives preliminary
	// views something to diverge from — one population writing through its
	// own coordinator would never observe staleness (cf. runGroups).
	bgWriter := cassandra.NewClient(cluster, netsim.IRL, netsim.IRL)
	for t := 0; t < threads/3+1; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 7_777_777 + int64(t)*1_000_003))
		g.Add(1)
		h.clock.Go(func() {
			defer g.Done()
			for h.clock.Now() < scen.Horizon {
				_ = bgWriter.Write(ycsb.Key(gen.Next(rng)), w.Value(rng), 1)
			}
		})
	}
	// The checked population (Config.Check): session clients running the
	// same YCSB mix through the full invoke pipeline — sessions enforcing
	// read-your-writes/monotonic reads, a history recorder observing every
	// op — on their own keyspace, so the recorded histories are closed
	// worlds the checkers can verify completely. Half contact the FRK
	// coordinator, half IRL, which makes cross-coordinator staleness (and
	// hence the session machinery) actually exercise under faults.
	var recorder *history.Recorder
	checkClients := 0
	if cfg.Check {
		recorder = history.NewRecorder()
		checkClients = cfg.pick(6, 4)
		checkKeys := 24
		for t := 0; t < checkClients; t++ {
			t := t
			coord := netsim.FRK
			if t%2 == 1 {
				coord = netsim.IRL
			}
			cc := cassandra.NewClient(cluster, netsim.IRL, coord)
			bc := binding.NewClient(cassandra.NewBinding(cc, cassandra.BindingConfig{StrongQuorum: 3}),
				binding.WithObserver(recorder),
				binding.WithTracer(h.trc),
				binding.WithLabel(fmt.Sprintf("sess-%02d", t)))
			sess := binding.NewSession(bc)
			rng := rand.New(rand.NewSource(cfg.Seed + 5_555_557 + int64(t)*1_000_003))
			g.Add(1)
			h.clock.Go(func() {
				defer g.Done()
				ctx := context.Background()
				for h.clock.Now() < scen.Horizon {
					key := fmt.Sprintf("chk-%03d", rng.Intn(checkKeys))
					if rng.Float64() < 0.65 {
						_, _ = sess.Get(ctx, key).Final(ctx)
					} else {
						_, _ = sess.Put(ctx, key, w.Value(rng)).Final(ctx)
					}
				}
			})
		}
	}
	for t := 0; t < threads; t++ {
		t := t
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		g.Add(1)
		h.clock.Go(func() {
			defer g.Done()
			for {
				now := h.clock.Now()
				if now >= scen.Horizon {
					return
				}
				key := ycsb.Key(gen.Next(rng))
				op := faultOp{start: now}
				if rng.Float64() < w.ReadProportion {
					op.isRead = true
					var confirmed bool
					err := client.Read(key, 3, true, func(v cassandra.ReadView) {
						if v.Final {
							op.final = h.clock.Now() - now
							confirmed = v.Confirmed
						} else {
							op.hasPrelim = true
							op.prelim = h.clock.Now() - now
						}
					})
					op.err = err != nil
					op.diverged = op.hasPrelim && !op.err && !confirmed
				} else {
					err := client.Write(key, w.Value(rng), 1)
					op.err = err != nil
					op.final = h.clock.Now() - now
				}
				op.end = h.clock.Now()
				shards[t] = append(shards[t], op)
			}
		})
	}
	g.Wait()
	inj.Quiesce()
	h.drain()

	// Bucket the merged records by the phase each operation started in.
	res := &FaultStudyResult{
		Scenario:    scen.Name,
		Description: scen.Description,
		UnitMs:      metrics.Ms(unit),
		OpTimeoutMs: metrics.Ms(opTimeout),
		Threads:     threads,
		Seed:        cfg.Seed,
		faultLog:    cfg.FaultLog,
	}
	for _, tr := range inj.Log() {
		res.Transitions = append(res.Transitions, tr.At.String()+": "+tr.Desc)
	}
	if recorder != nil {
		res.Check = buildCheckReport(recorder, checkClients, "registers")
	}
	for i, ph := range scen.Phases {
		row := FaultStudyRow{Phase: ph.Name, StartMs: metrics.Ms(ph.Start), EndMs: metrics.Ms(ph.End)}
		prelim, final, update := metrics.NewHistogram(), metrics.NewHistogram(), metrics.NewHistogram()
		var completed, diverged, divergeBase int64
		for _, shard := range shards {
			for _, op := range shard {
				if phaseOf(scen.Phases, op.at()) != i {
					continue
				}
				if op.isRead {
					row.Reads++
					if op.hasPrelim {
						row.Prelims++
						prelim.Record(op.prelim)
					}
					if op.err {
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
					if op.err {
						row.WriteErr++
					} else {
						update.Record(op.final)
					}
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
		var prevDropped, prevHinted int64
		var prevLoad netsim.LoadStats
		if i > 0 {
			prevDropped, prevHinted = droppedAt[i-1], hintedAt[i-1]
			prevLoad = loadAt[i-1]
		}
		row.DroppedMsgs = droppedAt[i] - prevDropped
		row.HintedMsgs = hintedAt[i] - prevHinted
		row.Rejected = loadAt[i].Rejected - prevLoad.Rejected
		row.Shed = loadAt[i].Shed - prevLoad.Shed
		row.Retried = loadAt[i].Retried - prevLoad.Retried
		res.Rows = append(res.Rows, row)
	}
	res.Traced = h.observe(scen.Phases)
	return res, nil
}
