package netsim

import (
	"sync"
	"time"
)

// Clock is the time substrate of the simulation. All deadline math is done
// in model time: a monotonically increasing time.Duration measured from the
// clock's creation. Two implementations exist:
//
//   - VirtualClock: a deterministic discrete-event scheduler. Nothing ever
//     sleeps on the host; whenever every registered actor is blocked, model
//     time jumps straight to the earliest pending deadline. Experiments run
//     at CPU speed and are bit-for-bit reproducible from a seed.
//   - WallClock: scales model durations to wall-clock durations and really
//     sleeps (with granularity compensation). Used for real-time demos.
//
// Code running under a clock is organized into actors and callbacks. The
// goroutine that created the clock is the root actor; further actors must
// be spawned with Go (never the bare go statement) and may only block
// through the clock: Sleep/SleepUntil, or the Event/Queue/Group
// primitives. Under a VirtualClock, spawned actors are coroutines on
// pooled workers, resumed one at a time by a dispatch loop that runs on
// the root goroutine while the root is parked, and callbacks run inline
// on the root. An actor that blocks on anything else (a bare channel, an
// external process) never yields back to a VirtualClock's dispatcher and
// freezes the simulation.
//
// The actor-vs-callback rule: work that blocks mid-flight (multi-hop
// protocol logic, server-slot queueing) needs an actor — Go gives it a
// stack to park. Fire-and-forget work that just runs at a deadline
// (asynchronous replication applying a mutation, a commit delivery, a
// block-mining tick) should use RunAt/RunAfter instead: under a
// VirtualClock a callback costs no actor and no coroutine switch, which is
// what makes million-actor runs affordable. Callbacks MUST NOT block —
// under a VirtualClock a blocking call from a callback panics (fail fast);
// a callback that needs to block spawns an actor with Go. Under a
// WallClock callbacks run on their own goroutines (time.AfterFunc), so the
// rule is not enforced there — write callbacks to the virtual discipline.
type Clock interface {
	// Now returns the current model time.
	Now() time.Duration
	// Sleep blocks the calling actor for the model duration d.
	Sleep(d time.Duration)
	// SleepUntil blocks the calling actor until the absolute model instant t.
	SleepUntil(t time.Duration)
	// Go spawns fn as a new actor tracked by the clock.
	Go(fn func())
	// RunAt schedules fn to run at the absolute model instant t without
	// spawning an actor. fn must not block; see the type comment.
	RunAt(t time.Duration, fn func())
	// RunAfter schedules fn to run after model duration d without spawning
	// an actor. fn must not block; see the type comment.
	RunAfter(d time.Duration, fn func())
	// NewEvent returns a one-shot broadcast usable by actors of this clock.
	NewEvent() Event
	// NewQueue returns an unbounded FIFO usable by actors of this clock.
	NewQueue() Queue
	// NewGroup returns a WaitGroup analogue usable by actors of this clock.
	NewGroup() Group
	// StartStopwatch begins measuring model time.
	StartStopwatch() Stopwatch
}

// Event is a one-shot broadcast: Wait blocks until Fire has been called.
// Fire is idempotent; Wait after Fire returns immediately.
type Event interface {
	Fire()
	Wait()
}

// Queue is an unbounded FIFO. Put never blocks; Get blocks until an item is
// available. Under a VirtualClock, items are handed to waiting actors in
// deterministic FIFO order.
type Queue interface {
	Put(v any)
	Get() any
}

// Group counts outstanding work like sync.WaitGroup: Wait blocks until the
// counter, moved by Add and Done, reaches zero.
type Group interface {
	Add(n int)
	Done()
	Wait()
}

// Stopwatch measures elapsed model time on any Clock.
type Stopwatch struct {
	clock Clock
	start time.Duration
}

// ElapsedModel returns the model time elapsed since the stopwatch started.
func (s Stopwatch) ElapsedModel() time.Duration {
	return s.clock.Now() - s.start
}

// sleepSlack is the measured overhead/granularity of time.Sleep on this
// host (Linux timer slack is commonly around a millisecond). WallClock
// sleeps are compensated by this amount so that scaled model delays stay
// accurate even when they map to wall durations near the granularity floor.
var sleepSlack = measureSleepSlack()

func measureSleepSlack() time.Duration {
	const n = 4
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		total += time.Since(start)
	}
	s := total / n
	if s < 100*time.Microsecond {
		s = 100 * time.Microsecond
	}
	if s > 5*time.Millisecond {
		s = 5 * time.Millisecond
	}
	return s
}

// sleepEps is the tolerated undershoot: remainders at or below it return
// immediately instead of rounding up to the sleep floor. A 4x-10x overshoot
// on sub-floor sleeps would distort scaled latencies far more than this
// bounded early return does (capacity accounting is unaffected — it uses
// absolute deadlines, not sleep outcomes).
var sleepEps = minDuration(300*time.Microsecond, sleepSlack/4)

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// sleepUntil blocks until the wall-clock deadline, compensating for the
// sleep granularity floor. Overshoot is bounded by roughly one slack
// quantum, undershoot by sleepEps, and neither accumulates across calls
// that target absolute deadlines.
func sleepUntil(deadline time.Time) {
	for {
		d := time.Until(deadline)
		if d <= sleepEps {
			return
		}
		if d > sleepSlack {
			time.Sleep(d - sleepSlack)
			continue
		}
		time.Sleep(d)
		return
	}
}

// WallClock scales simulated ("model") durations to wall-clock durations
// and really sleeps. A scale of 1.0 runs in real time (a 20 ms model RTT
// takes 20 ms); a scale of 0.1 runs 10x faster. Latencies are reported in
// model time, so output matches the paper's axes regardless of scale.
//
// The zero value is unusable; use NewClock.
type WallClock struct {
	scale float64
	epoch time.Time
}

var _ Clock = (*WallClock)(nil)

// NewClock returns a WallClock with the given model-to-wall scale factor.
// Scale must be > 0.
func NewClock(scale float64) *WallClock {
	if scale <= 0 {
		panic("netsim: clock scale must be positive")
	}
	return &WallClock{scale: scale, epoch: time.Now()}
}

// Scale returns the configured scale factor.
func (c *WallClock) Scale() float64 { return c.scale }

// Now implements Clock: the model time elapsed since the clock's creation.
func (c *WallClock) Now() time.Duration { return c.ToModel(time.Since(c.epoch)) }

// Sleep blocks for the wall-clock equivalent of model duration d.
func (c *WallClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	sleepUntil(time.Now().Add(c.ToWall(d)))
}

// SleepUntil blocks until the wall instant corresponding to model time t.
func (c *WallClock) SleepUntil(t time.Duration) {
	sleepUntil(c.epoch.Add(c.ToWall(t)))
}

// Go implements Clock: a plain goroutine (the OS scheduler interleaves
// wall-clock actors).
func (c *WallClock) Go(fn func()) { go fn() }

// RunAt implements Clock: fn runs on its own goroutine at the wall instant
// corresponding to model time t (immediately if t is past).
func (c *WallClock) RunAt(t time.Duration, fn func()) {
	c.RunAfter(t-c.Now(), fn)
}

// RunAfter implements Clock: fn runs on its own goroutine after the
// wall-clock equivalent of model duration d.
func (c *WallClock) RunAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(c.ToWall(d), fn)
}

// NewEvent implements Clock.
func (c *WallClock) NewEvent() Event { return &wallEvent{ch: make(chan struct{})} }

// NewQueue implements Clock.
func (c *WallClock) NewQueue() Queue {
	q := &wallQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// NewGroup implements Clock.
func (c *WallClock) NewGroup() Group { return &wallGroup{} }

// StartStopwatch begins timing.
func (c *WallClock) StartStopwatch() Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// ToWall converts a model duration to a wall-clock duration.
func (c *WallClock) ToWall(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale)
}

// ToModel converts a measured wall-clock duration back to model time.
func (c *WallClock) ToModel(d time.Duration) time.Duration {
	return time.Duration(float64(d) / c.scale)
}

// wallEvent is a chan-backed one-shot broadcast.
type wallEvent struct {
	once sync.Once
	ch   chan struct{}
}

func (e *wallEvent) Fire() { e.once.Do(func() { close(e.ch) }) }
func (e *wallEvent) Wait() { <-e.ch }

// wallQueue is an unbounded cond-backed FIFO.
type wallQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []any
}

func (q *wallQueue) Put(v any) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *wallQueue) Get() any {
	q.mu.Lock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.mu.Unlock()
	return v
}

// wallGroup wraps sync.WaitGroup.
type wallGroup struct{ wg sync.WaitGroup }

func (g *wallGroup) Add(n int) { g.wg.Add(n) }
func (g *wallGroup) Done()     { g.wg.Done() }
func (g *wallGroup) Wait()     { g.wg.Wait() }
