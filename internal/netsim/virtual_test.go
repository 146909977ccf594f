package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestVirtualTimeJumps: with every actor parked, model time jumps straight
// to the earliest deadline — a long model sleep costs no wall time.
func TestVirtualTimeJumps(t *testing.T) {
	c := NewVirtualClock()
	wall := time.Now()
	c.Sleep(10 * time.Hour)
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Fatalf("10h model sleep took %v wall, want ~0", elapsed)
	}
	if got := c.Now(); got != 10*time.Hour {
		t.Errorf("Now = %v, want 10h", got)
	}
}

// TestVirtualDeterministicOrder: actors woken from the same and different
// deadlines interleave in a fixed order (deadline, then spawn order).
func TestVirtualDeterministicOrder(t *testing.T) {
	run := func() string {
		c := NewVirtualClock()
		var log []string
		g := c.NewGroup()
		for i, d := range []time.Duration{30, 10, 20, 10, 30} {
			i, d := i, d*time.Millisecond
			g.Add(1)
			c.Go(func() {
				defer g.Done()
				c.Sleep(d)
				log = append(log, fmt.Sprintf("%d@%v", i, c.Now()))
			})
		}
		g.Wait()
		return strings.Join(log, " ")
	}
	first := run()
	want := "1@10ms 3@10ms 2@20ms 0@30ms 4@30ms"
	if first != want {
		t.Errorf("wake order = %q, want %q", first, want)
	}
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged: %q vs %q", i, got, first)
		}
	}
}

// TestVirtualQueueFIFO: queue handoff wakes waiters in arrival order and
// never loses items.
func TestVirtualQueueFIFO(t *testing.T) {
	c := NewVirtualClock()
	q := c.NewQueue()
	var got []int
	g := c.NewGroup()
	for i := 0; i < 3; i++ {
		g.Add(1)
		c.Go(func() {
			defer g.Done()
			got = append(got, q.Get().(int))
		})
	}
	c.Go(func() {
		for i := 1; i <= 3; i++ {
			q.Put(i)
		}
	})
	g.Wait()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("got %v, want [1 2 3]", got)
	}
}

// TestVirtualEventBroadcast: Fire wakes every waiter; Wait after Fire
// returns immediately; double Fire is harmless.
func TestVirtualEventBroadcast(t *testing.T) {
	c := NewVirtualClock()
	e := c.NewEvent()
	woken := 0
	g := c.NewGroup()
	for i := 0; i < 3; i++ {
		g.Add(1)
		c.Go(func() {
			defer g.Done()
			e.Wait()
			woken++
		})
	}
	c.Go(func() {
		c.Sleep(time.Millisecond)
		e.Fire()
		e.Fire()
	})
	g.Wait()
	e.Wait() // already fired: returns immediately
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

// TestVirtualDrainRunsBackgroundWork: Drain advances time until pending
// timers (async sends) have completed.
func TestVirtualDrainRunsBackgroundWork(t *testing.T) {
	c := NewVirtualClock()
	ran := 0
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * 50 * time.Millisecond
		c.Go(func() {
			c.Sleep(d)
			ran++
		})
	}
	c.Drain()
	if ran != 3 {
		t.Errorf("ran = %d background actors, want 3", ran)
	}
	if got := c.Now(); got != 150*time.Millisecond {
		t.Errorf("Now after drain = %v, want 150ms", got)
	}
	c.Drain() // idempotent on a quiescent clock
}

// TestVirtualBlockOn: a foreign wait detaches from the scheduler; the rest
// of the simulation keeps running (and advancing time) meanwhile.
func TestVirtualBlockOn(t *testing.T) {
	c := NewVirtualClock()
	ch := make(chan int, 1)
	c.Go(func() {
		c.Sleep(time.Second)
		ch <- 42
	})
	var got int
	c.BlockOn(func() { got = <-ch })
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if c.Now() < time.Second {
		t.Errorf("Now = %v, want >= 1s (time must advance during BlockOn)", c.Now())
	}
}

// TestVirtualDeadlockPanics: an actor blocking on an event nobody can fire
// is reported as a deadlock instead of hanging the test binary.
func TestVirtualDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c := NewVirtualClock()
	c.NewEvent().Wait()
}

// TestVirtualSleepZeroAndPast: non-positive and past deadlines return
// immediately without yielding.
func TestVirtualSleepZeroAndPast(t *testing.T) {
	c := NewVirtualClock()
	c.Sleep(0)
	c.Sleep(-time.Second)
	c.Sleep(time.Millisecond)
	c.SleepUntil(0) // in the past now
	if got := c.Now(); got != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", got)
	}
}

// TestVirtualTransportDeterminism: the full substrate (transport jitter,
// server queueing, async sends) replays identically for a fixed seed.
func TestVirtualTransportDeterminism(t *testing.T) {
	run := func() string {
		clock := NewVirtualClock()
		meter := NewMeter()
		tr := NewTransport(clock, DefaultLatencies(), meter, 7)
		srv := NewServer(clock, 2)
		var log []string
		g := clock.NewGroup()
		for i := 0; i < 6; i++ {
			i := i
			g.Add(1)
			clock.Go(func() {
				defer g.Done()
				tr.Travel(IRL, FRK, LinkClient, 100)
				srv.Process(2 * time.Millisecond)
				tr.Travel(FRK, IRL, LinkClient, 200)
				log = append(log, fmt.Sprintf("%d@%v", i, clock.Now()))
			})
		}
		g.Wait()
		clock.Drain()
		return fmt.Sprint(log, meter.Snapshot()[LinkClient], clock.Now())
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestVirtualCallbackTimerOrder: callback timers (RunAt/RunAfter)
// interleave with actor wakeups in (deadline, arming sequence) order, and
// run without spawning goroutines.
func TestVirtualCallbackTimerOrder(t *testing.T) {
	run := func() string {
		c := NewVirtualClock()
		var log []string
		note := func(tag string) { log = append(log, fmt.Sprintf("%s@%v", tag, c.Now())) }
		g := c.NewGroup()
		g.Add(1)
		c.Go(func() { // seq 0: actor sleeping to 20ms
			defer g.Done()
			c.Sleep(20 * time.Millisecond)
			note("actor")
		})
		c.RunAfter(20*time.Millisecond, func() { note("cb-after-actor") }) // seq armed after the spawn
		c.RunAfter(10*time.Millisecond, func() { note("cb-early") })
		c.RunAt(30*time.Millisecond, func() { note("cb-late") })
		spawnedBefore := c.Spawned()
		g.Wait()
		c.Drain()
		if got := c.Spawned(); got != spawnedBefore {
			t.Errorf("callback timers spawned %d goroutines, want 0", got-spawnedBefore)
		}
		return strings.Join(log, " ")
	}
	first := run()
	// Same 20ms deadline: arming sequence breaks the tie. The callback was
	// armed right after the actor was spawned, but the actor's wakeup timer
	// is only armed when it actually calls Sleep — after the root has armed
	// all three callbacks — so the callback fires first.
	want := "cb-early@10ms cb-after-actor@20ms actor@20ms cb-late@30ms"
	if first != want {
		t.Errorf("order = %q, want %q", first, want)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d diverged: %q vs %q", i, got, first)
		}
	}
}

// TestVirtualCallbackChaining: a callback may arm further callbacks and
// spawn actors; Drain runs the whole cascade to completion.
func TestVirtualCallbackChaining(t *testing.T) {
	c := NewVirtualClock()
	var fired []time.Duration
	var arm func()
	arm = func() {
		fired = append(fired, c.Now())
		if len(fired) < 4 {
			c.RunAfter(50*time.Millisecond, arm)
		}
	}
	c.RunAfter(50*time.Millisecond, arm)
	ran := false
	c.RunAfter(120*time.Millisecond, func() {
		// Blocking work from a callback goes through a spawned actor.
		c.Go(func() {
			c.Sleep(time.Millisecond)
			ran = true
		})
	})
	c.Drain()
	if len(fired) != 4 || fired[3] != 200*time.Millisecond {
		t.Errorf("cascade fired at %v, want 4 firings ending at 200ms", fired)
	}
	if !ran {
		t.Error("actor spawned from callback never ran")
	}
	if got := c.Now(); got != 200*time.Millisecond {
		t.Errorf("Now after drain = %v, want 200ms", got)
	}
}

// TestVirtualCallbackResolvesDeadlock: a pending callback timer that wakes
// a blocked actor is not a deadlock — the dispatcher runs it and the
// simulation proceeds.
func TestVirtualCallbackResolvesDeadlock(t *testing.T) {
	c := NewVirtualClock()
	e := c.NewEvent()
	c.RunAfter(30*time.Millisecond, e.Fire)
	e.Wait() // would deadlock without the callback
	if got := c.Now(); got != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", got)
	}
}

// TestVirtualDeadlockWithPendingCallbacks: callbacks that fire without
// unblocking anyone do not mask a deadlock — the fail-fast panic still
// triggers once the timer queue is exhausted.
func TestVirtualDeadlockWithPendingCallbacks(t *testing.T) {
	cbRan := false
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !cbRan {
			t.Error("pending callback should have run before the deadlock was declared")
		}
	}()
	c := NewVirtualClock()
	c.RunAfter(10*time.Millisecond, func() { cbRan = true }) // unrelated
	c.NewEvent().Wait()
}

// TestVirtualCallbackMustNotBlock: a callback calling a blocking clock
// operation fails fast with a diagnostic panic instead of corrupting the
// token protocol.
func TestVirtualCallbackMustNotBlock(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected fail-fast panic")
		}
		if !strings.Contains(fmt.Sprint(r), "callback timer attempted to block") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c := NewVirtualClock()
	c.RunAfter(time.Millisecond, func() { c.Sleep(time.Second) })
	c.Drain()
}

// TestVirtualDrainRunsQueuedCallbacks: Drain advances time through every
// queued callback, including ones armed at distinct deadlines while other
// actors are still running.
func TestVirtualDrainRunsQueuedCallbacks(t *testing.T) {
	c := NewVirtualClock()
	ran := 0
	for i := 1; i <= 5; i++ {
		c.RunAfter(time.Duration(i)*20*time.Millisecond, func() { ran++ })
	}
	c.Drain()
	if ran != 5 {
		t.Errorf("ran = %d callbacks, want 5", ran)
	}
	if got := c.Now(); got != 100*time.Millisecond {
		t.Errorf("Now after drain = %v, want 100ms", got)
	}
	c.Drain() // idempotent on a quiescent clock
}

// TestVirtualRunAtPast: a callback armed in the past runs at the current
// instant (on the next dispatch), not never.
func TestVirtualRunAtPast(t *testing.T) {
	c := NewVirtualClock()
	c.Sleep(50 * time.Millisecond)
	var at time.Duration = -1
	c.RunAt(10*time.Millisecond, func() { at = c.Now() })
	c.Drain()
	if at != 50*time.Millisecond {
		t.Errorf("past RunAt fired at %v, want 50ms (current instant)", at)
	}
}

// TestTransportSendSpawnsNoGoroutines: the converted async send path is
// goroutine-free end to end.
func TestTransportSendSpawnsNoGoroutines(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTransport(clock, DefaultLatencies(), NewMeter(), 3)
	before := clock.Spawned()
	delivered := 0
	for i := 0; i < 100; i++ {
		tr.Send(IRL, FRK, LinkReplica, 64, func() { delivered++ })
		tr.SendAfter(5*time.Millisecond, FRK, VRG, LinkReplica, 64, func() { delivered++ })
	}
	clock.Drain()
	if delivered != 200 {
		t.Errorf("delivered = %d, want 200", delivered)
	}
	if got := clock.Spawned(); got != before {
		t.Errorf("async sends spawned %d goroutines, want 0", got-before)
	}
}

// TestVirtualQueueBacklogMemoryBounded: a queue that never fully drains
// (persistent producer lead) must keep its backing buffer proportional to
// the live depth, not to the total put count — the head-indexed buffer
// compacts its dead prefix.
func TestVirtualQueueBacklogMemoryBounded(t *testing.T) {
	c := NewVirtualClock()
	q := c.NewQueue().(*vQueue)
	const depth = 8
	for i := 0; i < depth; i++ {
		q.Put(i)
	}
	// 100k operations at a constant backlog of `depth`.
	for i := 0; i < 100_000; i++ {
		q.Put(depth + i)
		if got := q.Get().(int); got != i {
			t.Fatalf("Get = %d, want %d (FIFO order broken)", got, i)
		}
	}
	if got := cap(q.items.buf); got > 64*depth {
		t.Errorf("backlogged queue buffer cap = %d, want O(depth=%d): dead prefix not compacted", got, depth)
	}
	for i := 0; i < depth; i++ {
		q.Get()
	}
}

// TestVirtualBlockOnFromActor: a spawned actor may detach through BlockOn
// while the root drains; the dispatcher keeps running the rest of the
// simulation, waits for the rejoin at quiescence, and resumes the actor
// inside the scheduler afterwards.
func TestVirtualBlockOnFromActor(t *testing.T) {
	c := NewVirtualClock()
	ch := make(chan int, 1)
	got, rejoinedAt := 0, time.Duration(-1)
	c.Go(func() {
		c.BlockOn(func() { got = <-ch })
		rejoinedAt = c.Now()
		c.Sleep(time.Millisecond) // back under the clock: parks normally
	})
	c.Go(func() {
		c.Sleep(time.Second)
		ch <- 42
	})
	c.Drain()
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if rejoinedAt != time.Second {
		t.Errorf("actor rejoined at %v, want 1s", rejoinedAt)
	}
	if now := c.Now(); now != time.Second+time.Millisecond {
		t.Errorf("Now after drain = %v, want 1.001s", now)
	}
}

// TestVirtualActorPanicReachesRoot: a panic inside an actor surfaces on the
// root goroutine with its original value, where the caller can recover it.
func TestVirtualActorPanicReachesRoot(t *testing.T) {
	type boom struct{ n int }
	defer func() {
		if r := recover(); r != (boom{7}) {
			t.Fatalf("recovered %v, want boom{7}", r)
		}
	}()
	c := NewVirtualClock()
	c.Go(func() {
		c.Sleep(time.Millisecond)
		panic(boom{7})
	})
	c.Drain()
	t.Fatal("Drain returned; the actor's panic was lost")
}

// TestVirtualWorkersReleased: actors run on pooled workers, so many
// drained worlds of short-lived actors leave at most the idle pool behind,
// and a drained clock is not pinned by any worker. The worlds run from
// four goroutines at once, sharing the process-wide pool. Each root's
// first world parks all its actors at once, more than the pool holds, so
// surplus workers must be stopped; the rest spawn in waves that the pool
// absorbs (under -race every stopped coroutine leaks a few KB of detector
// state, so the test keeps that churn small).
func TestVirtualWorkersReleased(t *testing.T) {
	const roots, worlds, actors = 4, 200, 2000
	base := runtime.NumGoroutine()
	collected := make([]chan struct{}, roots)
	var wg sync.WaitGroup
	for r := range collected {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < worlds/roots; w++ {
				wave := 40
				if w == 0 {
					wave = actors
				}
				collected[r] = runWorld(t, actors, wave)
			}
		}()
	}
	wg.Wait()
	if n := runtime.NumGoroutine(); n > base+maxIdleWorkers {
		t.Errorf("goroutines after %d worlds = %d, want <= %d (baseline %d + pool bound %d)",
			worlds, n, base+maxIdleWorkers, base, maxIdleWorkers)
	}
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected[0]:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("drained clock was never collected")
		}
	}
}

// runWorld drains one world of n short-lived actors, spawned wave at a time
// one model millisecond apart, and returns a channel closed once its clock
// has been garbage collected.
func runWorld(t *testing.T, n, wave int) chan struct{} {
	c := NewVirtualClock()
	ran := 0
	for i := 0; i < n; i++ {
		if i > 0 && i%wave == 0 {
			c.Sleep(time.Millisecond)
		}
		d := time.Duration(i%5) * time.Millisecond
		c.Go(func() {
			c.Sleep(d)
			ran++
		})
	}
	c.Drain()
	if ran != n {
		t.Errorf("ran = %d actors, want %d", ran, n)
	}
	collected := make(chan struct{})
	runtime.AddCleanup(c, func(ch chan struct{}) { close(ch) }, collected)
	return collected
}
