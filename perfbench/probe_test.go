package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// fakeStore implements every optional interface the client library looks
// for on a binding.
type fakeStore struct{ sched core.Scheduler }

func (f *fakeStore) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}
func (f *fakeStore) Close() error { return nil }
func (f *fakeStore) SubmitOperation(_ context.Context, _ binding.Operation, _ core.Levels, cb binding.Callback) {
	cb(binding.Result{Level: core.LevelStrong})
}
func (f *fakeStore) Scheduler() core.Scheduler                                         { return f.sched }
func (f *fakeStore) Versions() bool                                                    { return true }
func (f *fakeStore) DefaultOpTimeout() time.Duration                                   { return 3 * time.Second }
func (f *fakeStore) BatchShards() int                                                  { return 4 }
func (f *fakeStore) BatchKey(binding.Operation) (int, bool)                            { return 2, true }
func (f *fakeStore) SubmitBatch(int, []binding.BatchEntry, func([]binding.BatchEntry)) {}

func TestWrappersForwardProviders(t *testing.T) {
	store := &fakeStore{sched: binding.SchedulerFor(netsim.NewVirtualClock())}
	p := newProbe()
	for name, b := range map[string]binding.Binding{
		"plain": wrapBinding(store, p),
		"batch": wrapBatch(store, p),
	} {
		sp, ok := b.(binding.SchedulerProvider)
		if !ok || sp.Scheduler() != store.sched {
			t.Errorf("%s: scheduler not forwarded", name)
		}
		if vb, ok := b.(binding.Versioner); !ok || !vb.Versions() {
			t.Errorf("%s: versioner not forwarded", name)
		}
		if tp, ok := b.(binding.TimeoutProvider); !ok || tp.DefaultOpTimeout() != 3*time.Second {
			t.Errorf("%s: timeout provider not forwarded", name)
		}
	}
	bb, ok := wrapBatch(store, p).(binding.BatchBinding)
	if !ok || bb.BatchShards() != 4 {
		t.Fatal("batch wrapper does not forward BatchBinding")
	}
	if shard, ok := bb.BatchKey(binding.Get{Key: "k"}); !ok || shard != 2 {
		t.Errorf("BatchKey not forwarded: %d %v", shard, ok)
	}
	if wrapBinding(store, nil) != binding.Binding(store) {
		t.Error("without a probe the store must not be wrapped")
	}
}

func TestWrapperTimesSubmitAndDelivery(t *testing.T) {
	p := newProbe()
	b := wrapBinding(&fakeStore{}, p)
	delivered := false
	b.SubmitOperation(context.Background(), binding.Get{Key: "k"}, core.Levels{core.LevelStrong},
		func(binding.Result) { delivered = true })
	if !delivered {
		t.Fatal("callback not delivered through the wrapper")
	}
	if len(p.durs[spanSubmit]) != 1 || len(p.durs[spanDeliver]) != 1 || p.submitNs <= 0 {
		t.Fatalf("spans: submit %d deliver %d, submitNs %d", len(p.durs[spanSubmit]), len(p.durs[spanDeliver]), p.submitNs)
	}
}

func TestSameValue(t *testing.T) {
	if !sameValue([]byte("a"), []byte("a")) || sameValue([]byte("a"), []byte("b")) {
		t.Error("byte views compared wrongly")
	}
	if !sameValue(binding.Item{ID: "1", Exists: true, Remaining: 3}, binding.Item{ID: "1", Exists: true}) {
		t.Error("items with one identity must be equal")
	}
	if !sameValue(binding.Ack{}, binding.Ack{}) {
		t.Error("acks must be equal")
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples collected")
	}
	found := false
	for _, s := range samples {
		for _, f := range s.stack {
			if f == "correctables/perfbench.TestCPUProfileAttribution" {
				found = true
			}
		}
	}
	if !found {
		t.Error("the busy test function is in no sample's stack")
	}
	var total float64
	for _, v := range cpuByLayer(samples) {
		total += v
	}
	if total > 100.0001 {
		t.Errorf("buckets sum to %v%%", total)
	}
}

func TestInnermostPackage(t *testing.T) {
	stack := []string{"runtime.mallocgc", "correctables/internal/core.(*Correctable[...]).deliver", "correctables/internal/binding.submit[...]"}
	if got := innermostPackage(stack); got != "core" {
		t.Errorf("innermostPackage = %q, want core", got)
	}
	if got := innermostPackage([]string{"main.main"}); got != "" {
		t.Errorf("innermostPackage = %q, want none", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists and
// the program's tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestTracedRunMatchesUntraced runs every workload once untraced and once
// traced: both must pass the gate and give the same model-time digest, so
// the timing wrappers, observers and tracer change no scheduling.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			b := &bench{def: def, seed: 3}
			ref, err := b.iterate(false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := b.iterate(true)
			if err != nil {
				t.Fatal(err)
			}
			g := &gate{}
			g.outcome(ref.out)
			g.iteration(ref, traced, true)
			for _, f := range g.failures {
				t.Error(f)
			}
			if traced.p.views == 0 || len(traced.p.durs[spanInvoke]) == 0 || len(traced.p.durs[spanSubmit]) == 0 {
				t.Errorf("traced run recorded no host spans or views")
			}
		})
	}
}
