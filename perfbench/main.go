// Command perfbench is the repository's benchmark: host cost per simulated
// op and the ICG latency, bandwidth and goodput the simulator reports, on
// three workloads that stress different layers.
//
//	perfbench --workload ycsb-b --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures with tracing off and prints the end-to-end
// metrics; with --trace 1 it runs the same seed untraced and traced (span
// tracer, host spans around each layer call, CPU profile), prints the
// per-layer metrics and writes the artifacts under --out. Either way the
// last line of stdout is one JSON object with the keys correct, attempted,
// failed and metrics, and the command exits nonzero when the correctness
// gate fails.
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// world is one built workload instance, ready to run once.
type world interface {
	run() *outcome
}

type workloadDef struct {
	name string
	why  string
	// store is the layer whose wrapped submits the traced run times.
	store  string
	config any
	build  func(seed int64, p *probe) (world, error)
}

var workloads = []workloadDef{
	{"ycsb-b", "paper's headline regime (Fig 6, 11): closed-loop YCSB-B over unsharded ICG Cassandra; WAN-bound, host cost is the per-op invoke path; no admission, batching, ring or zk",
		"cassandra", ycsbCfg, buildYCSB},
	{"session-storm", "open-loop Poisson sessions at ~1.65x capacity through AIMD admission, batching and a 4-shard ring; goodput, wasted work and skew show",
		"cassandra", stormCfg, buildStorm},
	{"zk-failover", "all-write zk queue sessions through a leader partition and election; zk, faults, op timeouts and history checks do the work; no cassandra, ring or load",
		"zk", zkCfg, buildZK},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: ycsb-b, session-storm or zk-failover")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench/artifacts", "directory for the traced run's artifacts and the result record")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		return 2
	}
	b := &bench{def: def, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		dir: filepath.Join(*out, fmt.Sprintf("%s-seed%d", def.name, *seed))}
	var res *result
	var err error
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(os.Stdout)
	if err := res.record(b.dir, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: gate: %s\n", f)
		}
		return 1
	}
	return 0
}

// iteration is one set-up and run of a world.
type iteration struct {
	out      *outcome
	setupS   float64
	hostS    float64 // first op to checked verdict
	cpuS     float64
	mallocs  uint64
	peakHeap uint64
	peakG    int
	p        *probe
}

func (it *iteration) opsPerHostS() float64 { return float64(it.out.doneOps) / it.hostS }

type bench struct {
	def    *workloadDef
	seed   int64
	budget time.Duration
	dir    string
}

// iterate builds and runs one world, measuring its host cost.
func (b *bench) iterate(traced bool) (*iteration, error) {
	runtime.GC()
	var p *probe
	if traced {
		p = newProbe()
	}
	t0 := time.Now()
	w, err := b.def.build(b.seed, p)
	if err != nil {
		return nil, err
	}
	it := &iteration{setupS: time.Since(t0).Seconds(), p: p}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := startSampler(2 * time.Millisecond)
	t1 := time.Now()
	c1 := cpuTime()
	it.out = w.run()
	it.hostS = time.Since(t1).Seconds()
	it.cpuS = cpuTime() - c1
	it.peakHeap, it.peakG = s.finish()
	runtime.ReadMemStats(&m1)
	it.mallocs = m1.Mallocs - m0.Mallocs
	return it, nil
}

// repeat runs iterations until the deadline (at least one), gating each
// against the reference run.
func (b *bench) repeat(ref *iteration, traced bool, until time.Time, g *gate, keep func(*iteration)) error {
	for n := 0; n == 0 || time.Now().Before(until); n++ {
		it, err := b.iterate(traced)
		if err != nil {
			return err
		}
		g.iteration(ref, it, traced)
		keep(it)
	}
	return nil
}

// untraced measures the end-to-end metrics with tracing off: one warm-up
// run (the reference for the model-time outputs), then repeated runs of
// the same seed for the budget; host figures are medians over them.
func (b *bench) untraced() (*result, error) {
	start := time.Now()
	ref, err := b.iterate(false)
	if err != nil {
		return nil, err
	}
	g := &gate{}
	g.outcome(ref.out)
	// Keep only each run's figures: retaining whole outcomes would grow
	// the heap from run to run, and with it the GC's pace.
	var setup, rate, allocs, heap, cpuRate []float64
	if err := b.repeat(ref, false, start.Add(b.budget), g, func(it *iteration) {
		setup = append(setup, it.setupS)
		rate = append(rate, it.opsPerHostS())
		cpuRate = append(cpuRate, float64(it.out.doneOps)/it.cpuS)
		allocs = append(allocs, perOp(float64(it.mallocs), it.out.doneOps))
		heap = append(heap, float64(it.peakHeap)/(1<<20))
	}); err != nil {
		return nil, err
	}
	res := b.newResult(ref, g)
	res.Iterations = len(rate)
	res.Samples = map[string][]float64{"setup_s": setup, "sim_ops_per_host_s": rate,
		"allocs_per_op": allocs, "peak_heap_mb": heap, "sim_ops_per_cpu_s": cpuRate}
	res.set("setup_s", median(setup), nil)
	res.set("sim_ops_per_host_s", median(rate), nil)
	res.set("sim_ops_per_cpu_s", median(cpuRate), nil)
	res.set("allocs_per_op", median(allocs), nil)
	res.set("peak_heap_mb", median(heap), nil)
	res.modelMetrics(ref.out)
	return res, nil
}

// traced runs the same seed untraced for half the budget and traced for
// the other half, under a CPU profile, and derives the per-layer metrics.
func (b *bench) traced() (*result, error) {
	start := time.Now()
	ref, err := b.iterate(false)
	if err != nil {
		return nil, err
	}
	g := &gate{}
	g.outcome(ref.out)
	var plain []float64
	if err := b.repeat(ref, false, start.Add(b.budget/2), g, func(it *iteration) {
		plain = append(plain, it.opsPerHostS())
	}); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var tracedRates []float64
	var layerRuns []map[string]float64
	var last *iteration
	err = b.repeat(ref, true, start.Add(b.budget), g, func(it *iteration) {
		tracedRates = append(tracedRates, it.opsPerHostS())
		layerRuns = append(layerRuns, layerMetrics(b.def.store, it))
		last = it
	})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}

	res := b.newResult(ref, g)
	res.Iterations = len(layerRuns)
	layers := map[string]float64{}
	for _, m := range perLayer {
		var vs []float64
		for _, run := range layerRuns {
			vs = append(vs, run[m.Name])
		}
		layers[m.Name] = median(vs)
	}
	// Artifacts: the last traced run's Chrome trace and host-span log, the
	// CPU profile of every traced run.
	exp := time.Now()
	if err := writeChrome(filepath.Join(b.dir, "trace.json.gz"), last.out); err != nil {
		return nil, err
	}
	layers["trace.export_host_ms"] = float64(time.Since(exp).Microseconds()) / 1000
	if err := last.p.writeLog(filepath.Join(b.dir, "hostspans.tsv")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(b.dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	cpu, err := cpuLayersFromBytes(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range cpu {
		layers[k] = v
	}
	if u := median(plain); u > 0 {
		layers["trace.overhead_pct"] = 100 * (u - median(tracedRates)) / u
	}
	for _, m := range perLayer {
		res.set(m.Name, layers[m.Name], nil)
	}
	return res, nil
}

// writeChrome exports a traced run's model-time spans and gauges as a
// gzipped Chrome trace (Perfetto opens it as is).
func writeChrome(path string, out *outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	if err := out.trc.WriteChrome(zw, out.reg); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layerMetrics derives one traced run's per-layer metrics from its
// outcome, probe and host samples.
func layerMetrics(store string, it *iteration) map[string]float64 {
	m := map[string]float64{}
	for k, v := range it.out.layers {
		m[k] = v
	}
	p, ops := it.p, it.out.doneOps
	ns := func(k spanKind, want int) float64 { return percentile(sortedCopy(p.durs[k]), want).Value }
	m["netsim.spawns_per_op"] = perOp(float64(it.out.spawns), ops)
	m["netsim.goroutines_peak"] = float64(it.peakG)
	m["core.views_per_op"] = perOp(float64(p.views), p.ended)
	m["core.prelim_confirmed_pct"] = pct(p.confirmed, p.compared)
	m["core.deliver_host_ns_p50"] = ns(spanDeliver, 50)
	m["core.deliver_host_ns_p99"] = ns(spanDeliver, 99)
	m["binding.invoke_host_ns_p50"] = ns(spanInvoke, 50)
	m["binding.invoke_host_ns_p99"] = ns(spanInvoke, 99)
	m["binding.invoke_self_host_ns_p50"] = percentile(sortedCopy(p.invokeSelf), 50).Value
	m[store+".submit_host_ns_p50"] = ns(spanSubmit, 50)
	if decisions := p.admitted + p.degraded + p.rejected; decisions > 0 {
		m["load.admitted_pct"] = pct(p.admitted+p.degraded, decisions)
		m["load.admit_host_ns_p50"] = ns(spanAdmit, 50)
	}
	var sess, lin float64
	for _, d := range p.durs[spanSessCheck] {
		sess += d
	}
	for _, d := range p.durs[spanLinCheck] {
		lin += d
	}
	m["history.session_check_host_ms"] = sess / 1e6
	m["history.linearize_check_host_ms"] = lin / 1e6
	m["history.checked_ops"] = float64(it.out.check.ops)
	m["history.violations"] = float64(len(it.out.check.violations))
	m["history.inconclusive_keys"] = float64(len(it.out.check.inconclusive))
	return m
}

// gate collects correctness failures across a run's iterations.
type gate struct {
	failures  []string
	attempted int64
	failed    int64
}

func (g *gate) failf(format string, args ...any) {
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// outcome checks one run's own verdicts: history checkers, paper-shape
// assertions and unexpected request errors.
func (g *gate) outcome(o *outcome) {
	t := account(o.reqs, latencyLimit)
	g.attempted += t.Requests
	g.failed += t.Unexpected
	for _, v := range o.check.violations {
		g.failf("history violation: %s", v)
	}
	if n := len(o.check.inconclusive); n > 0 {
		g.failf("history check inconclusive on %d keys: %v", n, o.check.inconclusive)
	}
	if o.check.ops == 0 {
		g.failf("history check saw no ops")
	}
	for _, s := range o.shape {
		g.failf("paper shape: %s", s)
	}
	if o.unexpected != "" {
		g.failf("%d requests failed unexpectedly, first: %s", t.Unexpected, o.unexpected)
	}
}

// iteration checks a repeat run, traced or not, against the reference:
// the same seed must give the same model-time outputs.
func (g *gate) iteration(ref, it *iteration, traced bool) {
	g.outcome(it.out)
	if it.out.digest != ref.out.digest {
		g.failf("model-time outputs differ from the reference run of the same seed (traced=%v)", traced)
	}
}

// result is one run's report.
type result struct {
	Correct    bool          `json:"correct"`
	Failures   []string      `json:"failures,omitempty"`
	Attempted  int64         `json:"attempted"`
	Failed     int64         `json:"failed"`
	Iterations int           `json:"iterations"`
	Metrics    []metricValue `json:"metrics"`
	// Samples are the per-iteration host figures behind the medians.
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Manifest manifest             `json:"manifest"`
	Tally    map[string]any       `json:"tally"`
}

type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Pctl is set for latencies: the percentile used and its sample count.
	Pctl *pctl `json:"pctl,omitempty"`
}

func (b *bench) newResult(ref *iteration, g *gate) *result {
	res := &result{
		Correct:   len(g.failures) == 0,
		Failures:  g.failures,
		Attempted: g.attempted,
		Failed:    g.failed,
		Manifest:  newManifest(b.def, b.seed, b.budget),
	}
	t := account(ref.out.reqs, latencyLimit)
	res.Tally = map[string]any{
		"requests": t.Requests, "failed_requests": t.Failed, "done_ops": ref.out.doneOps,
		"good_ops": t.GoodOps, "wasted_ops": t.WastedOps, "model_elapsed_ms": ms(ref.out.elapsed),
		"history_ops": ref.out.check.ops, "digest": fmt.Sprintf("%x", ref.out.digest[:8]),
	}
	return res
}

// set records a metric under its declared unit.
func (r *result) set(name string, v float64, p *pctl) {
	unit := ""
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			unit = m.Unit
		}
	}
	r.Metrics = append(r.Metrics, metricValue{Name: name, Value: v, Unit: unit, Pctl: p})
}

// modelMetrics records the model-time end-to-end metrics of a run.
func (r *result) modelMetrics(o *outcome) {
	weak, final := latencies(o.reqs)
	for _, l := range []struct {
		name    string
		samples []float64
		want    int
	}{
		{"weak_p50_ms", weak, 50}, {"weak_p99_ms", weak, 99},
		{"final_p50_ms", final, 50}, {"final_p99_ms", final, 99},
	} {
		p := percentile(l.samples, l.want)
		if !p.OK {
			r.Correct = false
			r.Failures = append(r.Failures, fmt.Sprintf("%s: %d samples, too few for any percentile", l.name, p.N))
		}
		r.set(l.name, p.Value, &p)
	}
	t := account(o.reqs, latencyLimit)
	r.set("goodput_ops_per_model_s", float64(t.GoodOps)/o.elapsed.Seconds(), nil)
	r.set("served_pct", t.servedPct(), nil)
	r.set("client_bytes_per_op", perOp(float64(o.clientBytes), o.doneOps), nil)
}

// print writes the human-readable report: manifest, then one line per
// metric with its unit (and, for latencies, percentile and sample count).
func (r *result) print(w io.Writer) {
	man, _ := json.Marshal(r.Manifest) // plain structs and strings: cannot fail
	fmt.Fprintf(w, "manifest %s\n", man)
	fmt.Fprintf(w, "iterations %d  attempted %d  failed %d  correct %v\n", r.Iterations, r.Attempted, r.Failed, r.Correct)
	defs := map[string]metricDef{}
	for _, m := range perLayer {
		defs[m.Name] = m
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%-34s %16.4f %-12s", m.Name, m.Value, m.Unit)
		if m.Pctl != nil {
			line += fmt.Sprintf(" p%d of n=%d", m.Pctl.P, m.Pctl.N)
		}
		if d, ok := defs[m.Name]; ok && d.Moves != "" {
			line += fmt.Sprintf(" -> %s on %s", d.Moves, d.On)
		}
		fmt.Fprintln(w, line)
	}
}

// record writes the full result, manifest included, next to the artifacts.
func (r *result) record(dir string, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := "result-e2e.json"
	if traced {
		name = "result-layers.json"
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// summary is the one-line machine-readable result: correct, attempted,
// failed and every metric with its unit.
func (r *result) summary() map[string]any {
	ms := map[string]any{}
	for _, m := range r.Metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
