package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// spanKind names the layer boundary a host span was measured at.
type spanKind uint8

const (
	spanInvoke    spanKind = iota // binding.Invoke* / session call, client side
	spanSubmit                    // wrapped store SubmitOperation / SubmitBatch
	spanDeliver                   // wrapped binding Callback (core delivery)
	spanAdmit                     // wrapped AdmissionGate.Admit
	spanSessCheck                 // history session-guarantee checkers
	spanLinCheck                  // history linearizability checker
	spanExport                    // trace.WriteChrome
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"binding.invoke", "store.submit", "core.deliver", "load.admit",
	"history.session_check", "history.linearize_check", "trace.export",
}

// maxLoggedSpans bounds the host-span log kept for the artifact file;
// the per-kind durations behind the percentiles are all kept.
const maxLoggedSpans = 1 << 18

type hostSpan struct {
	kind       spanKind
	start, dur int64 // ns since the probe's epoch
}

// probe collects the traced run's host-time spans and counters. It is
// touched only by the simulation's token holder (or by the root actor
// between runs), so it needs no lock: the virtual clock already orders
// every access.
type probe struct {
	epoch time.Time
	spans []hostSpan
	durs  [numSpanKinds][]float64
	// submitNs is the running total of wrapped-submit time; an invoke span
	// subtracts the part that ran inside it to get its self time.
	submitNs   int64
	invokeSelf []float64

	// Admission decisions seen by the wrapped gate.
	admitted, degraded, rejected int64
	// Views and prelim confirmation, counted by viewObserver.
	views, ended, compared, confirmed int64
}

func newProbe() *probe { return &probe{epoch: time.Now()} }

func (p *probe) begin() int64 { return int64(time.Since(p.epoch)) }

func (p *probe) end(k spanKind, start int64) int64 {
	d := int64(time.Since(p.epoch)) - start
	p.durs[k] = append(p.durs[k], float64(d))
	if len(p.spans) < maxLoggedSpans {
		p.spans = append(p.spans, hostSpan{kind: k, start: start, dur: d})
	}
	return d
}

// timed runs one client invocation, recording its host span and self time
// (the invocation minus the wrapped submits it reached). With a nil probe
// it is a plain call.
func timed[T any](p *probe, invoke func() *core.Correctable[T]) *core.Correctable[T] {
	if p == nil {
		return invoke()
	}
	t, s := p.begin(), p.submitNs
	cor := invoke()
	d := p.end(spanInvoke, t)
	p.invokeSelf = append(p.invokeSelf, float64(d-(p.submitNs-s)))
	return cor
}

// measure runs fn as one host span of kind k (a plain call with a nil probe).
func (p *probe) measure(k spanKind, fn func()) {
	if p == nil {
		fn()
		return
	}
	t := p.begin()
	fn()
	p.end(k, t)
}

func (p *probe) wrapCallback(cb binding.Callback) binding.Callback {
	return func(r binding.Result) {
		t := p.begin()
		cb(r)
		p.end(spanDeliver, t)
	}
}

// writeLog writes the host-span log as tab-separated kind, start_ns, dur_ns.
func (p *probe) writeLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# host spans: kind\tstart_ns\tdur_ns (first %d of the run)\n", maxLoggedSpans)
	for _, s := range p.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\n", spanNames[s.kind], s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBinding wraps a store binding from outside, timing SubmitOperation
// and every callback it hands back. It forwards each optional provider
// interface the client library looks for, so a traced client schedules,
// versions and times out exactly like an untraced one; the traced-vs-
// untraced digest comparison catches a provider that goes missing.
type timedBinding struct {
	binding.Binding
	p *probe
}

func (b *timedBinding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	t := b.p.begin()
	b.Binding.SubmitOperation(ctx, op, levels, b.p.wrapCallback(cb))
	b.p.submitNs += b.p.end(spanSubmit, t)
}

// Scheduler forwards binding.SchedulerProvider; nil selects the client's
// default, as an inner binding without a provider would.
func (b *timedBinding) Scheduler() core.Scheduler {
	if sp, ok := b.Binding.(binding.SchedulerProvider); ok {
		return sp.Scheduler()
	}
	return nil
}

// Versions forwards binding.Versioner.
func (b *timedBinding) Versions() bool {
	vb, ok := b.Binding.(binding.Versioner)
	return ok && vb.Versions()
}

// DefaultOpTimeout forwards binding.TimeoutProvider (0 = unbounded).
func (b *timedBinding) DefaultOpTimeout() time.Duration {
	if tp, ok := b.Binding.(binding.TimeoutProvider); ok {
		return tp.DefaultOpTimeout()
	}
	return 0
}

// timedBatchBinding adds the binding.BatchBinding half, timing each
// coalesced dispatch.
type timedBatchBinding struct {
	timedBinding
	bb binding.BatchBinding
}

func (b *timedBatchBinding) BatchShards() int { return b.bb.BatchShards() }

func (b *timedBatchBinding) BatchKey(op binding.Operation) (int, bool) { return b.bb.BatchKey(op) }

func (b *timedBatchBinding) SubmitBatch(shard int, entries []binding.BatchEntry, done func([]binding.BatchEntry)) {
	for i := range entries {
		entries[i].Cb = b.p.wrapCallback(entries[i].Cb)
	}
	t := b.p.begin()
	b.bb.SubmitBatch(shard, entries, done)
	b.p.submitNs += b.p.end(spanSubmit, t)
}

// wrapBinding returns b itself without a probe, the timing wrapper with one.
func wrapBinding(b binding.Binding, p *probe) binding.Binding {
	if p == nil {
		return b
	}
	return &timedBinding{Binding: b, p: p}
}

// wrapBatch is wrapBinding for a batchable store binding.
func wrapBatch(b binding.BatchBinding, p *probe) binding.BatchBinding {
	if p == nil {
		return b
	}
	return &timedBatchBinding{timedBinding: timedBinding{Binding: b, p: p}, bb: b}
}

// timedGate wraps an admission gate, timing and counting its verdicts.
type timedGate struct {
	g binding.AdmissionGate
	p *probe
}

func (t *timedGate) Admit(client string, op binding.Operation) (binding.AdmissionDecision, error) {
	s := t.p.begin()
	d, err := t.g.Admit(client, op)
	t.p.end(spanAdmit, s)
	switch d {
	case binding.AdmissionReject:
		t.p.rejected++
	case binding.AdmissionDegrade:
		t.p.degraded++
	default:
		t.p.admitted++
	}
	return d, err
}

func wrapGate(g binding.AdmissionGate, p *probe) binding.AdmissionGate {
	if p == nil {
		return g
	}
	return &timedGate{g: g, p: p}
}

// opRef identifies one invocation across clients.
type opRef struct {
	client string
	id     binding.OpID
}

// viewObserver counts delivered views and whether each preliminary view
// was confirmed by its final one (the useful-speculation ratio).
type viewObserver struct {
	p    *probe
	weak map[opRef]any
}

func newViewObserver(p *probe) *viewObserver {
	return &viewObserver{p: p, weak: map[opRef]any{}}
}

func (o *viewObserver) OpStart(binding.OpInfo) {}

func (o *viewObserver) OpView(op binding.OpInfo, v binding.OpView) {
	o.p.views++
	ref := opRef{op.Client, op.ID}
	if !v.Final {
		if v.Level == core.LevelWeak {
			o.weak[ref] = v.Value
		}
		return
	}
	if w, ok := o.weak[ref]; ok {
		o.p.compared++
		if sameValue(w, v.Value) {
			o.p.confirmed++
		}
		delete(o.weak, ref)
	}
}

func (o *viewObserver) OpEnd(op binding.OpInfo, _ time.Duration, _ error) {
	o.p.ended++
	delete(o.weak, opRef{op.Client, op.ID})
}

// sameValue compares two delivered view values of one op.
func sameValue(a, b any) bool {
	switch av := a.(type) {
	case []byte:
		bv, ok := b.([]byte)
		return ok && bytes.Equal(av, bv)
	case binding.Item:
		bv, ok := b.(binding.Item)
		return ok && av.EqualValue(bv)
	default:
		return a == b
	}
}

// hostSampler polls heap in use and the goroutine count from its own
// goroutine while a run executes. It reads runtime/metrics, which does not
// stop the world.
type hostSampler struct {
	stop, done chan struct{}
	peakHeap   uint64
	peakG      int
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler(every time.Duration) *hostSampler {
	s := &hostSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *hostSampler) sample() {
	m := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindUint64 {
		s.peakHeap = max(s.peakHeap, m[0].Value.Uint64())
	}
	s.peakG = max(s.peakG, runtime.NumGoroutine())
}

// finish stops the sampler, takes a last sample and returns the peaks.
func (s *hostSampler) finish() (peakHeap uint64, peakG int) {
	close(s.stop)
	<-s.done
	s.sample()
	return s.peakHeap, s.peakG
}
