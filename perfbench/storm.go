package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/core"
	"correctables/internal/history"
	"correctables/internal/load"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// stormConfig is the session-storm workload: an open loop of Poisson
// sessions over sharded Correctable Cassandra, offered above capacity,
// through AIMD admission and per-region coordinator batching.
type stormConfig struct {
	Shards                 int     `json:"shards"`
	SessionsPerShardRegion float64 `json:"sessions_per_s_per_shard_per_region"`
	OpsPerSession          int     `json:"ops_per_session"`
	OwnKeys                int     `json:"own_keys"`
	SharedKeys             int     `json:"shared_keys"`
	ValueBytes             int     `json:"value_bytes"`
	StrongQuorum           int     `json:"strong_quorum"`
	WriteQuorum            int     `json:"write_quorum"`
	HorizonMs              float64 `json:"horizon_ms"`
	BatchWindowMs          float64 `json:"batch_window_ms"`
	AdmitThresholdMs       float64 `json:"admit_queue_delay_threshold_ms"`
	AdmitSampleMs          float64 `json:"admit_sample_every_ms"`
	CheckedSessions        int     `json:"checked_sessions"`
	CheckedKeys            int     `json:"checked_keys"`
	CheckedPaceMs          float64 `json:"checked_pace_ms"`
}

var stormCfg = stormConfig{
	Shards:                 4,
	SessionsPerShardRegion: 600,
	OpsPerSession:          3,
	OwnKeys:                1 << 16,
	SharedKeys:             4096,
	ValueBytes:             64,
	StrongQuorum:           2,
	WriteQuorum:            2,
	HorizonMs:              8_000,
	BatchWindowMs:          1,
	AdmitThresholdMs:       25,
	AdmitSampleMs:          20,
	CheckedSessions:        6,
	CheckedKeys:            12,
	CheckedPaceMs:          10,
}

type stormWorld struct {
	f        *fabric
	cluster  *cassandra.Cluster
	gate     *load.Controller
	batchers []*binding.Batcher
	bulk     []*binding.Client
	checked  []*binding.Session
	rec      *history.Recorder
	val      []byte
	seed     int64
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func buildStorm(seed int64, p *probe) (world, error) {
	cfg := stormCfg
	f := newFabric(seed, p)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          regions,
		Transport:        f.tr,
		Correctable:      true,
		ConfirmationOpt:  true,
		Shards:           cfg.Shards,
		Workers:          replicaWorkers,
		ReadServiceTime:  serviceTime,
		WriteServiceTime: serviceTime,
		FlushServiceTime: flushTime,
		ReadRepairChance: readRepair,
		Seed:             clusterSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("session-storm: cluster: %w", err)
	}
	if f.trc != nil {
		cluster.SetTrace(f.trc)
	}
	w := &stormWorld{f: f, cluster: cluster, rec: history.NewRecorder(), seed: seed,
		val: make([]byte, cfg.ValueBytes)}
	for i := range w.val {
		w.val[i] = byte('a' + i%26)
	}
	for i := 0; i < cfg.SharedKeys; i++ {
		cluster.Preload(sharedKey(i), w.val)
	}

	// The gate's static per-client buckets have 2x headroom over the
	// offered rate; shedding is the AIMD bucket's job, driven by the most
	// loaded replica's queue delay.
	perRegionOps := float64(cfg.OpsPerSession) * cfg.SessionsPerShardRegion * float64(cfg.Shards)
	aggregateOps := perRegionOps * float64(len(regions))
	w.gate = load.NewController(load.Config{
		Clock:          f.clock,
		PerClientRate:  2 * perRegionOps,
		PerClientBurst: perRegionOps / 2,
		Sample:         w.maxQueueDelay,
		SampleEvery:    msDur(cfg.AdmitSampleMs),
		Threshold:      msDur(cfg.AdmitThresholdMs),
		MinRate:        aggregateOps / 10,
		MaxRate:        2 * aggregateOps,
		Meter:          f.meter,
	})
	gate := wrapGate(w.gate, p)
	var obs *viewObserver
	if p != nil {
		obs = newViewObserver(p)
	}
	for _, region := range regions {
		cc := cassandra.NewClient(cluster, region, region)
		cc.TokenAware = true
		b := wrapBatch(cassandra.NewBinding(cc, cassandra.BindingConfig{
			StrongQuorum: cfg.StrongQuorum, WriteQuorum: cfg.WriteQuorum}), p)
		bt := binding.NewBatcher(b, f.clock, msDur(cfg.BatchWindowMs))
		w.batchers = append(w.batchers, bt)
		w.bulk = append(w.bulk, binding.NewClient(bt,
			f.clientOpts(fmt.Sprintf("storm-%s", region), obs, binding.WithAdmission(gate))...))
	}
	// Checked sub-population: recorded sessions through the same batchers
	// on an exclusive, non-preloaded keyspace, without admission or retries
	// (a retried write could land twice and break register attribution).
	for i := 0; i < cfg.CheckedSessions; i++ {
		c := binding.NewClient(w.batchers[i%len(w.batchers)],
			f.clientOpts(fmt.Sprintf("chk-%02d", i), obs, binding.WithObserver(w.rec))...)
		w.checked = append(w.checked, binding.NewSession(c))
	}
	if f.reg != nil {
		f.reg.Gauge("admit_rate", w.gate.AdmitRate)
		f.reg.Gauge("max_queue_delay_ms", func() float64 { return ms(w.maxQueueDelay()) })
	}
	return w, nil
}

func sharedKey(i int) string { return fmt.Sprintf("pool-%04d", i) }

// maxQueueDelay is the admission gate's backpressure signal: the queue
// delay of the most loaded replica in the fleet.
func (w *stormWorld) maxQueueDelay() time.Duration {
	var worst time.Duration
	for s := 0; s < stormCfg.Shards; s++ {
		for _, region := range regions {
			worst = max(worst, w.cluster.ReplicaAt(s, region).Server().QueueDelay())
		}
	}
	return worst
}

func (w *stormWorld) run() *outcome {
	cfg := stormCfg
	f, clock := w.f, w.f.clock
	horizon := msDur(cfg.HorizonMs)
	ctx := context.Background()
	spawned0 := clock.Spawned()
	out := &outcome{layers: map[string]float64{}}
	var lagMax time.Duration
	var sessions []request // in arrival order, filled by each session actor
	g := clock.NewGroup()
	w.gate.Start()
	if f.reg != nil {
		f.reg.Start(clock, horizon/64, horizon)
	}
	rate := cfg.SessionsPerShardRegion * float64(cfg.Shards)
	for ri := range regions {
		ri := ri
		c := w.bulk[ri]
		rng := rand.New(rand.NewSource(w.seed + 1_000_003*int64(ri) + 17))
		fire := func(int) {
			due := clock.Now()
			own := fmt.Sprintf("own-%05d", rng.Intn(cfg.OwnKeys))
			shared := sharedKey(rng.Intn(cfg.SharedKeys))
			idx := len(sessions)
			sessions = append(sessions, request{Due: due, WeakAt: noView, FinalAt: noView,
				Ops: int32(cfg.OpsPerSession), Group: uint8(ri)})
			g.Add(1)
			clock.Go(func() {
				defer g.Done()
				lagMax = max(lagMax, clock.Now()-due)
				r, err := w.session(ctx, c, own, shared, f.p)
				r.Due, r.Group = due, uint8(ri)
				out.noteUnexpected(err, r.Outcome)
				sessions[idx] = r
			})
		}
		load.Start(clock, load.NewPoisson(rate, w.seed+41+int64(ri)), horizon, fire)
	}
	checkedReqs := make([][]request, len(w.checked))
	for i, s := range w.checked {
		i, s := i, s
		rng := rand.New(rand.NewSource(w.seed + 500_009*int64(i) + 29))
		val := []byte(fmt.Sprintf("chk-value-%02d", i))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for clock.Now() < horizon {
				key := fmt.Sprintf("chk-%02d", rng.Intn(cfg.CheckedKeys))
				var r request
				var err error
				if rng.Float64() < 0.6 {
					r, err = icgRequest(clock, f.p, func() *core.Correctable[[]byte] { return s.Get(ctx, key) })
				} else {
					r, err = strongRequest(clock, f.p, func() *core.Correctable[binding.Ack] { return s.Put(ctx, key, val) })
				}
				out.noteUnexpected(err, r.Outcome)
				r.Group = uint8(len(regions))
				checkedReqs[i] = append(checkedReqs[i], r)
				clock.Sleep(msDur(cfg.CheckedPaceMs))
			}
		})
	}
	g.Wait()
	w.gate.Stop()
	out.elapsed = clock.Now()
	clock.Drain()
	out.spawns = clock.Spawned() - spawned0
	// The open-loop sessions are the unit of served_pct and goodput; the
	// checked population is reported through the history check only.
	out.reqs = sessions
	out.check = checkHistory(w.rec, "registers", f.p)

	t := account(out.reqs, latencyLimit)
	allOps := t.DoneOps
	for _, l := range checkedReqs {
		allOps += account(l, latencyLimit).DoneOps
	}
	out.doneOps = allOps
	f.netLayers(out.layers, allOps)
	var servers []*netsim.Server
	perShard := make([]int64, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		for _, region := range regions {
			srv := w.cluster.ReplicaAt(s, region).Server()
			servers = append(servers, srv)
			perShard[s] += srv.Handled()
		}
	}
	serverLayers(out.layers, servers, allOps, out.elapsed)
	out.layers["ring.shard_jain"] = jain(perShard)
	var batched, dispatches int64
	for _, bt := range w.batchers {
		o, d := bt.Stats()
		batched += o
		dispatches += d
	}
	out.layers["binding.batch_mean_ops"] = perOp(float64(batched), dispatches)
	out.layers["binding.dispatches_per_op"] = perOp(float64(dispatches), allOps)
	out.layers["load.wasted_ops_pct"] = t.wastedPct()
	out.layers["load.generator_lag_ms"] = ms(lagMax)
	ls := f.meter.Load(netsim.LinkClient)
	out.layers["load.rejected"] = float64(ls.Rejected)
	out.layers["load.shed"] = float64(ls.Shed)
	if f.trc != nil {
		tt := f.totals()
		reads := 2 * (t.Requests - t.Failed) // strong read-back + ICG read of each completed session
		out.layers["cassandra.quorum_ms_per_read"] = perOp(tt.Ms(trace.CatQuorum), reads)
		out.layers["cassandra.flush_ms_per_read"] = perOp(tt.Ms(trace.CatFlush), reads)
		for _, ts := range f.reg.Series() {
			if ts.Name != "admit_rate" {
				continue
			}
			var vs []float64
			for _, pt := range ts.Points {
				vs = append(vs, pt.V)
			}
			out.layers["load.admit_rate_mean"] = mean(vs)
		}
	}

	if lagMax != 0 {
		out.shape = append(out.shape, fmt.Sprintf("session-storm: generator lag %v, want 0", lagMax))
	}
	var completed, failed int64
	for i := range sessions {
		if sessions[i].Outcome == outOK {
			completed++
		} else {
			failed++
		}
	}
	if int64(len(sessions)) != completed+failed || completed == 0 {
		out.shape = append(out.shape, fmt.Sprintf("session-storm: started %d != completed %d + failed %d", len(sessions), completed, failed))
	}
	if t.GoodOps > t.DoneOps {
		out.shape = append(out.shape, fmt.Sprintf("session-storm: goodput ops %d > served ops %d", t.GoodOps, t.DoneOps))
	}
	out.finish(f)
	return out
}

// session runs one open-loop session: put its own key (W=2), read it back
// strongly, then ICG-read a shared key. The first failed op ends it.
// Instants are absolute; the caller stamps Due.
func (w *stormWorld) session(ctx context.Context, c *binding.Client, own, shared string, p *probe) (request, error) {
	r := request{WeakAt: noView, FinalAt: noView, Ops: int32(stormCfg.OpsPerSession)}
	fail := func(err error) (request, error) {
		r.Outcome = classify(err, load.ErrRejected)
		return r, err
	}
	if _, err := timed(p, func() *core.Correctable[binding.Ack] {
		return binding.InvokeStrong[binding.Ack](ctx, c, binding.Put{Key: own, Value: w.val})
	}).Final(ctx); err != nil {
		return fail(err)
	}
	r.Done++
	if _, err := timed(p, func() *core.Correctable[[]byte] {
		return binding.InvokeStrong[[]byte](ctx, c, binding.Get{Key: own})
	}).Final(ctx); err != nil {
		return fail(err)
	}
	r.Done++
	cor := timed(p, func() *core.Correctable[[]byte] {
		return binding.Invoke[[]byte](ctx, c, binding.Get{Key: shared})
	})
	v, err := cor.WaitLevel(ctx, core.LevelWeak)
	if err != nil {
		return fail(err)
	}
	if v.Level == core.LevelWeak {
		r.WeakAt = v.At
	}
	fin, err := cor.Final(ctx)
	if err != nil {
		return fail(err)
	}
	r.Done++
	r.FinalAt = fin.At
	return r, nil
}
