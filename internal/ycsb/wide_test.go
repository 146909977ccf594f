package ycsb

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"correctables/internal/metrics"
	"correctables/internal/netsim"
)

// simDB is a synthetic store for runner-scalability tests: latencies are
// drawn from the per-thread RNG and charged on the virtual clock, with the
// fire-and-forget tail of every update delivered as a callback timer —
// the same shape as the real bindings, minus the protocol logic. It keeps
// wide-client runs about the runner, not the store.
type simDB struct {
	clock netsim.Clock
}

func (d simDB) Read(rng *rand.Rand, key string) (ReadOutcome, error) {
	sw := d.clock.StartStopwatch()
	d.clock.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
	prelim := sw.ElapsedModel()
	d.clock.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
	return ReadOutcome{
		HasPrelim:     true,
		PrelimLatency: prelim,
		FinalLatency:  sw.ElapsedModel(),
		Diverged:      rng.Intn(10) == 0,
	}, nil
}

func (d simDB) Update(rng *rand.Rand, key string, value []byte) (time.Duration, error) {
	sw := d.clock.StartStopwatch()
	d.clock.Sleep(time.Duration(2+rng.Intn(3)) * time.Millisecond)
	// Asynchronous replication tail: goroutine-free background work.
	d.clock.RunAfter(10*time.Millisecond, func() {})
	return sw.ElapsedModel(), nil
}

// fingerprintResult serializes everything observable about a Result.
func fingerprintResult(r *Result) string {
	histo := func(h *metrics.Histogram) string {
		return fmt.Sprintf("n=%d mean=%d p50=%d p99=%d min=%d max=%d",
			h.Count(), int64(h.Mean()), int64(h.Percentile(50)),
			int64(h.Percentile(99)), int64(h.Min()), int64(h.Max()))
	}
	return fmt.Sprintf("ops=%d reads=%d updates=%d prelims=%d diverged=%d errs=%d elapsed=%d tput=%v rf[%s] rp[%s] up[%s]",
		r.Ops, r.Reads, r.Updates, r.PrelimReads, r.Diverged, r.Errors,
		int64(r.Elapsed), r.ThroughputOps,
		histo(r.ReadFinal), histo(r.ReadPrelim), histo(r.UpdateLat))
}

func wideRun(threads int, seed int64) string {
	clock := netsim.NewVirtualClock()
	w := Workload{
		Name:           "wide",
		ReadProportion: 0.95, UpdateProportion: 0.05,
		RecordCount:  1000,
		ValueSize:    64,
		Distribution: DistZipfian,
	}
	res := Run(w, simDB{clock: clock}, clock, Options{
		Threads:  threads,
		Duration: 12 * time.Millisecond,
		Warmup:   2 * time.Millisecond,
		Seed:     seed,
	})
	clock.Drain()
	return fingerprintResult(res)
}

// TestYCSBWideClientsDeterministic scales the closed-loop runner to 10^5
// threads (wideThreads; fewer under the race detector) and requires
// byte-identical same-seed results. The sharded per-thread stats make the
// run contention-free; the deterministic merge makes the fingerprint a
// pure function of the seed.
func TestYCSBWideClientsDeterministic(t *testing.T) {
	threads := wideThreads
	if testing.Short() {
		threads = 10_000
	}
	first := wideRun(threads, 7)
	if got := wideRun(threads, 7); got != first {
		t.Fatalf("same-seed wide run diverged:\n%s\nvs\n%s", first, got)
	}
	// Seed sensitivity holds at any width; check it at 10^4 so the
	// race-detector run does not pay a third 10^5-actor spawn wave.
	if wideRun(10_000, 7) == wideRun(10_000, 8) {
		t.Fatal("different seed produced identical results; seed unused?")
	}
	t.Logf("threads=%d %s", threads, first)
}

// BenchmarkYCSBWideClients measures a full wide-client closed-loop run:
// 10^5 actors spawned, scheduled, and merged. One iteration is one
// complete run (spawn to merge).
func BenchmarkYCSBWideClients(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = wideRun(100_000, 7)
	}
}
