package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/netsim"
	"correctables/internal/trace"
	"correctables/internal/zk"
)

// zkConfig is the zk-failover workload: closed-loop queue sessions on
// Correctable ZooKeeper while a partition severs the leader's region.
type zkConfig struct {
	Leader            string  `json:"leader"`
	MajorityClients   int     `json:"majority_clients"`
	MajorityContact   string  `json:"majority_contact"`
	MinorityClients   int     `json:"minority_clients"`
	MinorityContact   string  `json:"minority_contact"`
	QueuesPerClient   int     `json:"queues_per_client"`
	EnqueueProportion float64 `json:"enqueue_proportion"`
	PayloadBytes      int     `json:"payload_bytes"`
	PartitionAtMs     float64 `json:"partition_at_ms"`
	HealAtMs          float64 `json:"heal_at_ms"`
	HorizonMs         float64 `json:"horizon_ms"`
	HeartbeatMs       float64 `json:"heartbeat_ms"`
	ElectionTimeoutMs float64 `json:"election_timeout_ms"`
	OpTimeoutMs       float64 `json:"op_timeout_ms"`
}

var zkCfg = zkConfig{
	Leader:            string(netsim.FRK),
	MajorityClients:   12,
	MajorityContact:   string(netsim.IRL),
	MinorityClients:   6,
	MinorityContact:   string(netsim.FRK),
	QueuesPerClient:   6,
	EnqueueProportion: 0.7,
	PayloadBytes:      64,
	PartitionAtMs:     8_000,
	HealAtMs:          24_000,
	HorizonMs:         32_000,
	HeartbeatMs:       250,
	ElectionTimeoutMs: 1_000,
	OpTimeoutMs:       2_000,
}

type zkWorld struct {
	f        *fabric
	e        *zk.Ensemble
	inj      *faults.Injector
	sessions []*binding.Session
	queues   [][]string
	groups   []uint8 // 0 majority, 1 minority
	rec      *history.Recorder
	seed     int64
}

func buildZK(seed int64, p *probe) (world, error) {
	cfg := zkCfg
	f := newFabric(seed, p)
	sched := faults.NewSchedule().
		At(msDur(cfg.PartitionAtMs), faults.Partition{Groups: [][]netsim.Region{
			{netsim.FRK}, {netsim.IRL, netsim.VRG},
		}}).
		At(msDur(cfg.HealAtMs), faults.Heal{})
	w := &zkWorld{f: f, rec: history.NewRecorder(), seed: seed}
	w.inj = faults.Attach(f.tr, sched, seed+3)
	e, err := zk.NewEnsemble(zk.Config{
		Regions:           regions,
		LeaderRegion:      netsim.Region(cfg.Leader),
		Transport:         f.tr,
		Correctable:       true,
		Workers:           replicaWorkers,
		ServiceTime:       zkServiceTime,
		OpTimeout:         msDur(cfg.OpTimeoutMs),
		HeartbeatInterval: msDur(cfg.HeartbeatMs),
		ElectionTimeout:   msDur(cfg.ElectionTimeoutMs),
	})
	if err != nil {
		return nil, fmt.Errorf("zk-failover: ensemble: %w", err)
	}
	w.e = e
	if f.trc != nil {
		e.SetTrace(f.trc)
	}
	var obs *viewObserver
	if p != nil {
		obs = newViewObserver(p)
	}
	// Queues are created up front and concurrently, on the healthy
	// ensemble, so the workload starts within a round trip of model zero.
	setup := zk.NewQueueClient(e, netsim.IRL, netsim.IRL)
	created := f.clock.NewGroup()
	var createErr error
	pops := []struct {
		n       int
		contact netsim.Region
	}{
		{cfg.MajorityClients, netsim.Region(cfg.MajorityContact)},
		{cfg.MinorityClients, netsim.Region(cfg.MinorityContact)},
	}
	for gi, pop := range pops {
		for t := 0; t < pop.n; t++ {
			label := fmt.Sprintf("zk-%s-%02d", pop.contact, t)
			// Each client owns its queues and cycles through them, which
			// keeps every per-queue history small enough for a conclusive
			// linearizability search.
			var queues []string
			for q := 0; q < cfg.QueuesPerClient; q++ {
				queues = append(queues, fmt.Sprintf("q-%s-%d", label, q))
			}
			created.Add(len(queues))
			for _, queue := range queues {
				queue := queue
				f.clock.Go(func() {
					defer created.Done()
					if err := setup.CreateQueue(queue); err != nil && createErr == nil {
						createErr = fmt.Errorf("zk-failover: creating %s: %w", queue, err)
					}
				})
			}
			qc := zk.NewQueueClient(e, pop.contact, pop.contact)
			c := binding.NewClient(wrapBinding(zk.NewBinding(qc), p),
				f.clientOpts(label, obs, binding.WithObserver(w.rec))...)
			w.sessions = append(w.sessions, binding.NewSession(c))
			w.queues = append(w.queues, queues)
			w.groups = append(w.groups, uint8(gi))
		}
	}
	created.Wait()
	if createErr != nil {
		return nil, createErr
	}
	return w, nil
}

func (w *zkWorld) run() *outcome {
	cfg := zkCfg
	f, clock := w.f, w.f.clock
	horizon, faultAt := msDur(cfg.HorizonMs), msDur(cfg.PartitionAtMs)
	ctx := context.Background()
	spawned0 := clock.Spawned()
	out := &outcome{layers: map[string]float64{}}
	payload := make([]byte, cfg.PayloadBytes)
	logs := make([][]request, len(w.sessions))
	g := clock.NewGroup()
	for i, s := range w.sessions {
		i, s := i, s
		queues := w.queues[i]
		rng := rand.New(rand.NewSource(w.seed + 5_555_557 + int64(i)*1_000_003))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for n := 0; clock.Now() < horizon; n++ {
				queue := queues[n%len(queues)]
				var r request
				var err error
				if rng.Float64() < cfg.EnqueueProportion {
					r, err = icgRequest(clock, f.p, func() *core.Correctable[binding.Item] {
						return s.Enqueue(ctx, queue, payload)
					}, faults.ErrUnreachable)
				} else {
					r, err = icgRequest(clock, f.p, func() *core.Correctable[binding.Item] {
						return s.Dequeue(ctx, queue)
					}, faults.ErrUnreachable)
				}
				out.noteUnexpected(err, r.Outcome)
				r.Group = w.groups[i]
				logs[i] = append(logs[i], r)
			}
		})
	}
	g.Wait()
	out.elapsed = clock.Now()
	w.inj.Quiesce()
	clock.Drain()
	out.spawns = clock.Spawned() - spawned0
	for _, l := range logs {
		out.reqs = append(out.reqs, l...)
	}
	out.check = checkHistory(w.rec, "queues", f.p)

	t := account(out.reqs, latencyLimit)
	out.doneOps = t.DoneOps
	f.netLayers(out.layers, t.DoneOps)
	faultLayers(out.layers, w.inj)
	var timeouts int64
	for i := range out.reqs {
		if out.reqs[i].Outcome == outRefused {
			timeouts++
		}
	}
	out.layers["binding.timeouts"] = float64(timeouts)

	// Recovery: the fault's election is the first won at or after the
	// fault; the prelim-only window closes with the first committed op the
	// majority side started after the fault.
	elections := 0
	for _, rec := range w.e.Elections() {
		if rec.At >= faultAt {
			if elections == 0 {
				out.layers["zk.recovery_ms"] = ms(rec.At - faultAt)
			}
			elections++
		}
	}
	out.layers["zk.elections"] = float64(elections)
	firstFinal := time.Duration(-1)
	for i := range out.reqs {
		r := &out.reqs[i]
		if r.Group == 0 && r.Due >= faultAt && r.Outcome == outOK && (firstFinal < 0 || r.FinalAt < firstFinal) {
			firstFinal = r.FinalAt
		}
	}
	var outagePrelims int64
	if firstFinal >= 0 {
		out.layers["zk.prelim_only_window_ms"] = ms(firstFinal - faultAt)
		for i := range out.reqs {
			if at := out.reqs[i].WeakAt; at != noView && at >= faultAt && at < firstFinal {
				outagePrelims++
			}
		}
	}
	if f.trc != nil {
		tt := f.totals()
		out.layers["zk.quorum_ms_per_op"] = perOp(tt.Ms(trace.CatQuorum), t.DoneOps)
	}
	if elections == 0 {
		out.shape = append(out.shape, "zk-failover: no election after the partition")
	}
	if outagePrelims == 0 {
		out.shape = append(out.shape, "zk-failover: no preliminary views served during the outage")
	}
	out.finish(f)
	return out
}
