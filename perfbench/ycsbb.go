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
	"correctables/internal/netsim"
	"correctables/internal/trace"
	"correctables/internal/ycsb"
)

// ycsbConfig is the ycsb-b workload: the paper's headline regime (Fig 6,
// Fig 11). A closed loop of remote clients over unsharded Correctable
// Cassandra; latency is WAN-bound and host cost is the per-op path.
type ycsbConfig struct {
	ClientsPerRegion int     `json:"clients_per_region"`
	Records          int     `json:"records"`
	ValueBytes       int     `json:"value_bytes"`
	ReadProportion   float64 `json:"read_proportion"`
	Distribution     string  `json:"distribution"`
	StrongQuorum     int     `json:"strong_quorum"`
	WriteQuorum      int     `json:"write_quorum"`
	HorizonMs        float64 `json:"horizon_ms"`
	CheckedSessions  int     `json:"checked_sessions"`
	CheckedKeys      int     `json:"checked_keys"`
	CheckedPaceMs    float64 `json:"checked_pace_ms"`
}

var ycsbCfg = ycsbConfig{
	ClientsPerRegion: 16,
	Records:          1000,
	ValueBytes:       1024,
	ReadProportion:   0.95,
	Distribution:     string(ycsb.DistZipfian),
	StrongQuorum:     2,
	WriteQuorum:      1,
	HorizonMs:        30_000,
	CheckedSessions:  6,
	CheckedKeys:      12,
	CheckedPaceMs:    10,
}

type ycsbWorld struct {
	f       *fabric
	cluster *cassandra.Cluster
	wl      ycsb.Workload
	gen     ycsb.Generator
	clients []*binding.Client
	values  [][]byte
	checked []*binding.Session
	rec     *history.Recorder
	seed    int64
}

func buildYCSB(seed int64, p *probe) (world, error) {
	cfg := ycsbCfg
	f := newFabric(seed, p)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          regions,
		Transport:        f.tr,
		Correctable:      true,
		ConfirmationOpt:  true,
		Workers:          replicaWorkers,
		ReadServiceTime:  serviceTime,
		WriteServiceTime: serviceTime,
		FlushServiceTime: flushTime,
		ReadRepairChance: readRepair,
		Seed:             clusterSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("ycsb-b: cluster: %w", err)
	}
	if f.trc != nil {
		cluster.SetTrace(f.trc)
	}
	w := &ycsbWorld{
		f:       f,
		cluster: cluster,
		wl:      ycsb.WorkloadB(ycsb.DistZipfian, cfg.Records, cfg.ValueBytes),
		rec:     history.NewRecorder(),
		seed:    seed,
	}
	w.gen = w.wl.NewGenerator()
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < cfg.Records; i++ {
		cluster.Preload(ycsb.Key(i), w.wl.Value(rng))
	}
	var obs *viewObserver
	if p != nil {
		obs = newViewObserver(p)
	}
	bcfg := cassandra.BindingConfig{StrongQuorum: cfg.StrongQuorum, WriteQuorum: cfg.WriteQuorum}
	for _, region := range regions {
		// Each client connects to its nearest remote coordinator, as in
		// the paper's deployments.
		coord := cluster.NearestRemote(region)
		for i := 0; i < cfg.ClientsPerRegion; i++ {
			b := wrapBinding(cassandra.NewBinding(cassandra.NewClient(cluster, region, coord), bcfg), p)
			label := fmt.Sprintf("ycsb-%s-%02d", region, i)
			w.clients = append(w.clients, binding.NewClient(b, f.clientOpts(label, obs)...))
			w.values = append(w.values, w.wl.Value(rng))
		}
	}
	// The checked population: recorded sessions on their own keyspace
	// with intersecting quorums (R=2, W=2), so register linearizability is
	// a sound check.
	for i := 0; i < cfg.CheckedSessions; i++ {
		region := regions[i%len(regions)]
		b := wrapBinding(cassandra.NewBinding(
			cassandra.NewClient(cluster, region, cluster.NearestRemote(region)),
			cassandra.BindingConfig{StrongQuorum: 2, WriteQuorum: 2}), p)
		c := binding.NewClient(b, f.clientOpts(fmt.Sprintf("chk-%02d", i), obs, binding.WithObserver(w.rec))...)
		w.checked = append(w.checked, binding.NewSession(c))
	}
	return w, nil
}

func (w *ycsbWorld) run() *outcome {
	cfg := ycsbCfg
	f, clock := w.f, w.f.clock
	horizon := time.Duration(cfg.HorizonMs * float64(time.Millisecond))
	ctx := context.Background()
	spawned0 := clock.Spawned()
	logs := make([][]request, len(w.clients)+len(w.checked))
	out := &outcome{layers: map[string]float64{}}
	g := clock.NewGroup()
	for i, c := range w.clients {
		i, c := i, c
		rng := rand.New(rand.NewSource(w.seed + 1_000_003*int64(i) + 11))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for clock.Now() < horizon {
				key := ycsb.Key(w.gen.Next(rng))
				var r request
				var err error
				if rng.Float64() < cfg.ReadProportion {
					r, err = icgRequest(clock, f.p, func() *core.Correctable[[]byte] {
						return binding.Invoke[[]byte](ctx, c, binding.Get{Key: key})
					})
				} else {
					r, err = strongRequest(clock, f.p, func() *core.Correctable[binding.Ack] {
						return binding.InvokeStrong[binding.Ack](ctx, c, binding.Put{Key: key, Value: w.values[i]})
					})
				}
				out.noteUnexpected(err, r.Outcome)
				logs[i] = append(logs[i], r)
			}
		})
	}
	for i, s := range w.checked {
		i, s := i, s
		li := len(w.clients) + i
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
				r.Group = 1
				logs[li] = append(logs[li], r)
				clock.Sleep(time.Duration(cfg.CheckedPaceMs * float64(time.Millisecond)))
			}
		})
	}
	g.Wait()
	out.elapsed = clock.Now()
	clock.Drain()
	out.spawns = clock.Spawned() - spawned0
	for _, l := range logs {
		out.reqs = append(out.reqs, l...)
	}
	out.check = checkHistory(w.rec, "registers", f.p)

	t := account(out.reqs, latencyLimit)
	out.doneOps = t.DoneOps
	var servers []*netsim.Server
	for _, region := range regions {
		servers = append(servers, w.cluster.Replica(region).Server())
	}
	f.netLayers(out.layers, t.DoneOps)
	serverLayers(out.layers, servers, t.DoneOps, out.elapsed)
	out.layers["ring.shard_jain"] = 1
	if f.trc != nil {
		tt := f.totals()
		reads := countReads(out.reqs)
		out.layers["cassandra.quorum_ms_per_read"] = perOp(tt.Ms(trace.CatQuorum), reads)
		out.layers["cassandra.flush_ms_per_read"] = perOp(tt.Ms(trace.CatFlush), reads)
	}

	weak, final := latencies(out.reqs)
	wp, fp := percentile(weak, 50), percentile(final, 50)
	if !(wp.OK && fp.OK && wp.Value <= 0.6*fp.Value) {
		out.shape = append(out.shape, fmt.Sprintf("ycsb-b: weak p50 %.3f ms is not <= 0.6 x final p50 %.3f ms", wp.Value, fp.Value))
	}
	out.finish(f)
	return out
}

// countReads counts requests that carried a preliminary view (the ICG reads).
func countReads(reqs []request) int64 {
	var n int64
	for i := range reqs {
		if reqs[i].WeakAt != noView {
			n++
		}
	}
	return n
}

// icgRequest runs one closed-loop ICG invocation and records its weak and
// final views relative to the invoke instant.
func icgRequest[T any](clock netsim.Clock, p *probe, invoke func() *core.Correctable[T], allowed ...error) (request, error) {
	ctx := context.Background()
	r := request{Due: clock.Now(), WeakAt: noView, FinalAt: noView, Ops: 1}
	cor := timed(p, invoke)
	v, err := cor.WaitLevel(ctx, core.LevelWeak)
	if err == nil && v.Level == core.LevelWeak {
		r.WeakAt = v.At
	}
	fin, err := cor.Final(ctx)
	if err != nil {
		r.Outcome = classify(err, allowed...)
		return r, err
	}
	r.FinalAt, r.Done = fin.At, 1
	return r, nil
}

// strongRequest runs one closed-loop single-level invocation.
func strongRequest[T any](clock netsim.Clock, p *probe, invoke func() *core.Correctable[T], allowed ...error) (request, error) {
	r := request{Due: clock.Now(), WeakAt: noView, FinalAt: noView, Ops: 1}
	fin, err := timed(p, invoke).Final(context.Background())
	if err != nil {
		r.Outcome = classify(err, allowed...)
		return r, err
	}
	r.FinalAt, r.Done = fin.At, 1
	return r, nil
}
