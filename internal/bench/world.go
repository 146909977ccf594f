package bench

import (
	"iter"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/load"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// world is one experiment run's simulated deployment: the clock, the
// transport and its meter, the observability plane, and the plumbing every
// experiment shares around them — the fault injector, the actor group, the
// admission gates, the history recorder and the end-of-run sequence. An
// experiment declares its stores, populations, gauges and row arithmetic
// on top; the assembly lives here.
type world struct {
	cfg   Config
	clock netsim.Clock
	meter *netsim.Meter
	tr    *netsim.Transport
	// trc/reg are the observability plane (nil unless cfg.Trace): the
	// span tracer is installed on the transport here and threaded into
	// stores and clients by the individual drivers; gauges register on
	// reg and sample on a model-time cadence via startSampling.
	trc *trace.Tracer
	reg *trace.Registry
	// rec records every operation of the sessions built by session.
	rec *history.Recorder

	inj   *faults.Injector // nil until inject
	group netsim.Group
	gates []*load.Controller
}

func newWorld(cfg Config) *world {
	return newWorldWith(cfg, netsim.DefaultLatencies())
}

// newWorldWith builds the world on an explicit latency model — the sweep
// experiment scales the paper's geography up and down; everything else
// runs on the default model.
func newWorldWith(cfg Config, lat *netsim.LatencyModel) *world {
	var clock netsim.Clock
	if cfg.Wall {
		clock = netsim.NewClock(cfg.Scale)
	} else {
		clock = netsim.NewVirtualClock()
	}
	meter := netsim.NewMeter()
	w := &world{
		cfg:   cfg,
		clock: clock,
		meter: meter,
		tr:    netsim.NewTransport(clock, lat, meter, cfg.Seed+1),
		rec:   history.NewRecorder(),
		group: clock.NewGroup(),
	}
	if cfg.Trace {
		w.trc = trace.New()
		w.reg = trace.NewRegistry()
		w.tr.SetTrace(w.trc)
	}
	return w
}

// inject attaches a fault injector running sched (nil: driven by Apply
// alone) to the transport; finish quiesces it. Call it before building
// stores, which wire their crash-recovery hooks at construction.
func (w *world) inject(sched *faults.Schedule) *faults.Injector {
	w.inj = faults.Attach(w.tr, sched, w.cfg.Seed+3)
	return w.inj
}

// transitions renders the injector's applied-transition log ("4s:
// partition {eu-frankfurt eu-ireland} | {us-virginia}"), the replay
// record.
func (w *world) transitions() []string {
	var out []string
	for _, tr := range w.inj.Log() {
		out = append(out, tr.At.String()+": "+tr.Desc)
	}
	return out
}

// spawn starts body as an actor of the world's group; finish waits for
// it. Safe from clock callbacks (arrival generators spawn per arrival).
func (w *world) spawn(body func()) {
	w.group.Add(1)
	w.clock.Go(func() {
		defer w.group.Done()
		body()
	})
}

// until spawns an actor that runs body until the model clock reaches
// horizon, sleeping pace after each round (0 = closed loop).
func (w *world) until(horizon, pace time.Duration, body func()) {
	w.spawn(func() {
		for w.clock.Now() < horizon {
			body()
			if pace > 0 {
				w.clock.Sleep(pace)
			}
		}
	})
}

// gate builds and starts an admission controller on the world's clock and
// meter; finish stops it.
func (w *world) gate(cfg load.Config) *load.Controller {
	cfg.Clock, cfg.Meter = w.clock, w.meter
	g := load.NewController(cfg)
	g.Start()
	w.gates = append(w.gates, g)
	return g
}

// session opens a session over b whose client is recorded by the world's
// history recorder, traced, and labelled; opts add per-population policy
// (timeouts, retries, admission).
func (w *world) session(b binding.Binding, label string, opts ...binding.Option) *binding.Session {
	opts = append([]binding.Option{
		binding.WithObserver(w.rec),
		binding.WithTracer(w.trc),
		binding.WithLabel(label),
	}, opts...)
	return binding.NewSession(binding.NewClient(b, opts...))
}

// finish ends the run: it waits for every spawned actor, stops the gates,
// quiesces the injector, and drains the background traffic (async
// replication, commit broadcasts) to completion. It returns the model
// instant before the drain. Wall-clock worlds just let the traffic finish
// in real time.
func (w *world) finish() time.Duration {
	w.group.Wait()
	for _, g := range w.gates {
		g.Stop()
	}
	if w.inj != nil {
		w.inj.Quiesce()
	}
	end := w.clock.Now()
	if vc, ok := w.clock.(*netsim.VirtualClock); ok {
		vc.Drain()
	}
	return end
}

// startSampling arms the registry's self-rescheduling probe over the
// experiment window at a horizon-relative cadence (64 samples per run,
// floored at 1ms so quick runs don't sample sub-millisecond). No-op when
// tracing is off.
func (w *world) startSampling(horizon time.Duration) {
	if w.reg == nil {
		return
	}
	every := horizon / 64
	if every < time.Millisecond {
		every = time.Millisecond
	}
	w.reg.Start(w.clock, every, horizon)
}

// observe folds the span tracer into one latency-decomposition row per
// phase and collects the sampled gauges: the Traced block a result embeds.
// Zero when tracing is off.
func (w *world) observe(phases []faults.Phase) Traced {
	if w.trc == nil {
		return Traced{}
	}
	t := Traced{trc: w.trc, reg: w.reg}
	for _, ph := range phases {
		t.Decomp = append(t.Decomp, decompRow(w.trc, ph.Name, ph.Start, ph.End))
	}
	t.Timeseries = w.reg.Series()
	return t
}

// droppedMsgs is the cumulative count of messages lost to the fault
// schedule on both link classes.
func (w *world) droppedMsgs() int64 {
	d := w.meter.SnapshotDropped()
	return d[netsim.LinkClient].Messages + d[netsim.LinkReplica].Messages
}

// opRecord is one measured operation in a phase ledger.
type opRecord struct {
	start, end time.Duration
	err        error
	read       bool
	hasPrelim  bool
	// prelim and final are the view latencies from start (final is the
	// acknowledgment latency for writes).
	prelim, final time.Duration
	// diverged: the preliminary view was not confirmed by the final one.
	diverged bool
	// degraded: the admission controller served the op at a weak level.
	degraded bool
}

// at is the instant that buckets the operation into a phase: completed
// operations belong to the phase they started in (their latency reflects
// the conditions they ran under), failed ones to the phase they died in (a
// read that starts just before a fault window and times out inside it is
// that fault's casualty, not the healthy baseline's).
func (op opRecord) at() time.Duration {
	if op.err != nil {
		return op.end
	}
	return op.start
}

// ledger holds a population's records in per-actor shards, so closed-loop
// actors append without contention and the merge order is deterministic.
type ledger [][]opRecord

// all yields every record, shard by shard.
func (l ledger) all() iter.Seq[opRecord] {
	return func(yield func(opRecord) bool) {
		for _, shard := range l {
			for _, op := range shard {
				if !yield(op) {
					return
				}
			}
		}
	}
}

// byPhase buckets the records into phases in one pass, by at(), keeping
// ledger order within each phase.
func (l ledger) byPhase(phases []faults.Phase) [][]opRecord {
	out := make([][]opRecord, len(phases))
	for op := range l.all() {
		i := phaseOf(phases, op.at())
		out[i] = append(out[i], op)
	}
	return out
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

// phaseCounters are the cumulative counters a phase row reports as diffs:
// messages lost to faults, async replication sends buffered as hints, and
// the client link's admission outcomes (attempts, not operations).
type phaseCounters struct {
	dropped, hinted int64
	load            netsim.LoadStats
}

// phaseProbe snapshots phaseCounters at every phase end.
type phaseProbe struct {
	at   []phaseCounters
	snap func() phaseCounters
}

// probePhases arms a cumulative snapshot at each phase end; hinted (nil:
// none) reads the store's queued-hint count. Arm it before traffic so the
// boundary callbacks interleave deterministically.
func (w *world) probePhases(phases []faults.Phase, hinted func() int64) *phaseProbe {
	p := &phaseProbe{at: make([]phaseCounters, len(phases))}
	p.snap = func() phaseCounters {
		c := phaseCounters{dropped: w.droppedMsgs(), load: w.meter.Load(netsim.LinkClient)}
		if hinted != nil {
			c.hinted = hinted()
		}
		return c
	}
	for i, ph := range phases {
		i := i
		w.clock.RunAt(ph.End, func() { p.at[i] = p.snap() })
	}
	return p
}

// settle re-snapshots the last phase after the run, folding late retries
// and drain-time outcomes into it.
func (p *phaseProbe) settle() { p.at[len(p.at)-1] = p.snap() }

// delta is phase i's share of the counters.
func (p *phaseProbe) delta(i int) phaseCounters {
	var prev phaseCounters
	if i > 0 {
		prev = p.at[i-1]
	}
	cur := p.at[i]
	return phaseCounters{
		dropped: cur.dropped - prev.dropped,
		hinted:  cur.hinted - prev.hinted,
		load: netsim.LoadStats{
			Rejected: cur.load.Rejected - prev.load.Rejected,
			Shed:     cur.load.Shed - prev.load.Shed,
			Retried:  cur.load.Retried - prev.load.Retried,
		},
	}
}
