package netsim

import (
	"fmt"
	"iter"
	"sync"
	"time"
)

// VirtualClock is a deterministic discrete-event scheduler. Exactly one
// piece of simulation code executes at any moment. The goroutine that
// calls NewVirtualClock is the root actor; every other actor is a
// coroutine, resumed by a dispatch loop that runs on the root goroutine
// whenever the root parks. A blocking operation (Sleep, Event.Wait,
// Queue.Get, Group.Wait, Drain) parks its caller: an actor yields back to
// the dispatcher, and the root enters the dispatcher itself. The
// dispatcher resumes runnable actors in FIFO order; when none is
// runnable, model time jumps straight to the earliest pending deadline —
// no host sleeping, ever. Because the dispatch order is a pure function of
// the program (spawn order, deadlines, FIFO wakeups), two runs of the same
// seeded workload execute the exact same event sequence and produce
// byte-identical metrics.
//
// Besides actors, the clock schedules callback timers (RunAt/RunAfter):
// the dispatcher executes a callback inline on the root goroutine when its
// deadline is reached — no actor, no coroutine switch. Callbacks
// interleave with actor wakeups in the same (deadline, arming sequence)
// order, so converting fire-and-forget actors to callbacks does not
// perturb determinism. The price is a discipline: a callback must not
// block. A call to Sleep, Event.Wait, Queue.Get, Group.Wait, BlockOn, or
// Drain from inside a callback panics if it would actually park (fail
// fast, like the deadlock check); calls that are satisfied immediately —
// a Get on a non-empty queue, a Wait on a fired event, a Sleep to the
// past — return without parking and are not detected, so do not lean on
// the panic to find violations: keep callbacks free of these calls
// entirely. Non-blocking operations — Now, Go, RunAt/RunAfter,
// Event.Fire, Queue.Put, Group.Add/Done — are all fine. Blocking work
// still needs an actor: spawn one with Go from inside the callback if
// necessary.
//
// Discipline (see the Clock interface comment): spawn actors with Go, block
// only through the clock, and use BlockOn around any foreign blocking. An
// actor that blocks on a bare channel without BlockOn freezes the whole
// simulation, since it never yields back to the dispatcher.
//
// Deadlock and callback-must-not-block panics are raised on the root
// goroutine, and so is an actor's panic (with its original value): all of
// them can be recovered by the root's caller.
//
// Internally the scheduler is built for million-actor runs. Actors run on
// workers: iter.Pull coroutines kept in a bounded process-wide pool, so a
// spawn reuses a goroutine whose stack has already grown, and a handoff is
// a direct coroutine switch rather than a scheduler wakeup. An actor is
// bound to a worker only once it first runs. The ready set is a
// head-indexed compacting deque (no reslice churn, memory bounded by the
// live depth), each actor parks through a single reused slot, and timers
// live in a concrete 4-ary heap of value entries (no container/heap
// boxing).
type VirtualClock struct {
	mu       sync.Mutex
	now      time.Duration
	seq      uint64
	timers   timerHeap
	ready    fifo[runnable]
	blocked  int     // actors parked on events/queues/groups
	detached int     // actors inside BlockOn
	idler    *vactor // Drain caller, woken only at quiescence
	// inCallback is true while the dispatcher runs a callback timer;
	// blocking operations fail fast when they see it (only the callback
	// itself can observe the flag — no actor runs during a callback).
	inCallback bool
	// root is the root actor's parking slot.
	root vactor
	// cur is the worker whose actor is running; nil while the root or a
	// callback runs.
	cur *worker
	// rejoin wakes a dispatcher that waits at quiescence for a BlockOn
	// caller to come back.
	rejoin chan struct{}
	// spawned counts Go calls, i.e. actors started. Benchmarks use it to
	// prove the callback path starts zero actors per message.
	spawned uint64
}

var _ Clock = (*VirtualClock)(nil)

// vactor is an actor's parking slot: what the timer heap, waiter lists and
// the ready set point at while the actor is parked. An actor parks in at
// most one place at a time, so each actor owns exactly one slot: the root's
// lives in the clock, every worker embeds its own.
type vactor struct {
	w   *worker // nil for the root
	val any     // the item a Queue.Put handed to this waiter
}

// runnable is one ready-set entry: a parked actor to resume (p set) or the
// body of a spawned actor that has not started yet (body set).
type runnable struct {
	p    *vactor
	body func()
}

// NewVirtualClock returns a virtual clock at model time zero. The calling
// goroutine becomes the root actor.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{}
}

// selfLocked returns the caller's parking slot and consumes one arming
// sequence number (every park does, so same-instant timers keep the order
// in which they were armed). Callers hold c.mu.
func (c *VirtualClock) selfLocked() (*vactor, uint64) {
	seq := c.seq
	c.seq++
	if c.cur != nil {
		return &c.cur.vactor, seq
	}
	return &c.root, seq
}

// checkCanBlockLocked fails fast when a callback timer attempts a blocking
// operation. Callers hold c.mu; on failure the lock is released before
// panicking so the message can be recovered by tests.
func (c *VirtualClock) checkCanBlockLocked(op string) {
	if c.inCallback {
		c.mu.Unlock()
		panic(fmt.Sprintf(
			"netsim: callback timer attempted to block in %s; callbacks must not block — spawn blocking work with Go", op))
	}
}

// parkLocked suspends the caller, whose slot p is already registered where
// it will be woken from (timer heap, waiter list, idler, BlockOn rejoin).
// An actor yields back to the dispatcher; the root runs the dispatcher
// until its own slot comes up. Enters with c.mu held, returns with it
// released once the caller is runnable again.
func (c *VirtualClock) parkLocked(p *vactor) {
	if w := p.w; w != nil {
		c.mu.Unlock()
		w.yield(false)
		return
	}
	c.dispatchLocked()
	c.mu.Unlock()
}

// dispatchLocked is the root's park loop. It runs the next work item until
// the root itself is runnable again: ready actors first (FIFO), then the
// earliest timer (advancing model time), then — only at full quiescence —
// the Drain idler. Callback timers run inline, without the lock; actors
// are resumed on their workers and run until they park or exit. While
// BlockOn callers are out, quiescence means waiting for one to rejoin. If
// parked actors remain with nothing left that could ever wake them, that
// is a deadlock and the simulation fails fast instead of hanging.
//
// Enters and returns with c.mu held, but releases it while callbacks and
// actors run.
func (c *VirtualClock) dispatchLocked() {
	for {
		var r runnable
		switch {
		case c.ready.len() > 0:
			r = c.ready.pop()
		case c.timers.len() > 0:
			e := c.timers.pop()
			if e.at > c.now {
				c.now = e.at
			}
			if e.fn != nil {
				// Callback timer: run inline, then keep dispatching (the
				// callback may have readied actors or armed further timers).
				c.inCallback = true
				c.mu.Unlock()
				e.fn()
				c.mu.Lock()
				c.inCallback = false
				continue
			}
			r.p = e.p
		case c.detached > 0:
			c.mu.Unlock()
			<-c.rejoin
			c.mu.Lock()
			continue
		case c.idler != nil:
			r.p, c.idler = c.idler, nil
		default:
			// The root is parked, so it is counted in blocked: parked actors
			// can now only be woken by other actors, and none remain. Any
			// pending callback timers have already run above without
			// unblocking anyone. Fail fast instead of hanging silently.
			n := c.blocked
			c.mu.Unlock()
			panic(fmt.Sprintf(
				"netsim: virtual clock deadlock: %d actor(s) blocked with no runnable actors and no pending timers", n))
		}
		if r.p == &c.root {
			return
		}
		c.resumeLocked(r)
	}
}

// resumeLocked runs one actor until it parks or exits: a new actor takes a
// worker from the pool, a parked one continues on its own. An exited
// actor's worker goes back to the pool. Enters and returns with c.mu held.
func (c *VirtualClock) resumeLocked(r runnable) {
	var w *worker
	if r.body != nil {
		w = getWorker()
		w.body = r.body
	} else {
		w = r.p.w
	}
	c.cur = w
	c.mu.Unlock()
	if exited, _ := w.resume(); exited {
		putWorker(w)
	}
	c.mu.Lock()
	c.cur = nil
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock: parks the actor for d of model time.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.sleepUntilLocked(c.now + d)
}

// SleepUntil implements Clock: parks the actor until model instant t.
func (c *VirtualClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	c.sleepUntilLocked(t)
}

// sleepUntilLocked parks the caller on the timer heap. Enters with c.mu
// held, returns with it released.
func (c *VirtualClock) sleepUntilLocked(t time.Duration) {
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	c.checkCanBlockLocked("Sleep")
	p, seq := c.selfLocked()
	c.timers.push(timerEntry{at: t, seq: seq, p: p})
	c.parkLocked(p)
}

// RunAt implements Clock: fn runs as a callback timer at model instant t
// (or the current instant, if t is in the past). The dispatcher executes
// it inline on the root goroutine — no actor is started — deterministically
// interleaved with actor wakeups by (deadline, arming sequence). fn must
// not block; see the type comment.
func (c *VirtualClock) RunAt(t time.Duration, fn func()) {
	c.mu.Lock()
	if t < c.now {
		t = c.now
	}
	c.timers.push(timerEntry{at: t, seq: c.seq, fn: fn})
	c.seq++
	c.mu.Unlock()
}

// RunAfter implements Clock: RunAt(Now()+d, fn).
func (c *VirtualClock) RunAfter(d time.Duration, fn func()) {
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	c.timers.push(timerEntry{at: c.now + d, seq: c.seq, fn: fn})
	c.seq++
	c.mu.Unlock()
}

// Go implements Clock: fn becomes a new actor, enqueued runnable behind the
// current ready set. It starts executing, on a pooled worker, when the
// dispatcher reaches it.
func (c *VirtualClock) Go(fn func()) {
	c.mu.Lock()
	c.ready.push(runnable{body: fn})
	c.seq++
	c.spawned++
	c.mu.Unlock()
}

// Spawned returns the number of actors the clock has started via Go (not
// goroutines: actors run on pooled workers). Scheduler benchmarks use the
// delta across a workload to verify that the callback-timer path starts
// none.
func (c *VirtualClock) Spawned() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spawned
}

// BlockOn implements Clock: wait runs on a helper goroutine while the
// caller is parked outside the scheduler, so the simulation continues
// (advancing time if needed). When wait returns, the caller rejoins the
// ready set. The rejoin order depends on the host scheduler, so a BlockOn
// wait is the one place where determinism is forfeited — keep it out of
// measured paths.
func (c *VirtualClock) BlockOn(wait func()) {
	c.mu.Lock()
	c.checkCanBlockLocked("BlockOn")
	p, _ := c.selfLocked()
	c.detached++
	if c.rejoin == nil {
		c.rejoin = make(chan struct{}, 1)
	}
	go func() {
		wait()
		c.mu.Lock()
		c.detached--
		c.ready.push(runnable{p: p})
		c.mu.Unlock()
		// Wake a dispatcher waiting at quiescence; if a wakeup is already
		// pending, that one will see this rejoin too.
		select {
		case c.rejoin <- struct{}{}:
		default:
		}
	}()
	c.parkLocked(p)
}

// Drain runs the simulation until quiescence: every remaining actor has
// either exited or parked on an event/queue that can no longer fire, no
// timers are pending, and every queued callback has run to completion.
// Model time advances as far as the pending work requires. Call it from
// the root actor at the end of an experiment so background traffic
// (asynchronous replication, commit broadcasts, read repair) runs to
// completion instead of leaving actors parked.
func (c *VirtualClock) Drain() {
	c.mu.Lock()
	if c.ready.len() == 0 && c.timers.len() == 0 && c.detached == 0 {
		c.mu.Unlock()
		return
	}
	c.checkCanBlockLocked("Drain")
	if c.idler != nil {
		c.mu.Unlock()
		panic("netsim: concurrent Drain on the same VirtualClock")
	}
	p, _ := c.selfLocked()
	c.idler = p
	c.parkLocked(p)
}

// NewEvent implements Clock.
func (c *VirtualClock) NewEvent() Event { return &vEvent{c: c} }

// NewQueue implements Clock.
func (c *VirtualClock) NewQueue() Queue { return &vQueue{c: c} }

// NewGroup implements Clock.
func (c *VirtualClock) NewGroup() Group { return &vGroup{c: c} }

// StartStopwatch begins timing.
func (c *VirtualClock) StartStopwatch() Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// waitLocked parks the caller on an event, queue or group; p is already on
// its waiter list. Enters with c.mu held, returns with it released.
func (c *VirtualClock) waitLocked(p *vactor) {
	c.blocked++
	c.parkLocked(p)
}

// wakeOneLocked moves one parked actor to the ready queue.
func (c *VirtualClock) wakeOneLocked(p *vactor) {
	c.blocked--
	c.ready.push(runnable{p: p})
}

// wakeAllLocked moves parked actors to the ready queue (FIFO order
// preserved).
func (c *VirtualClock) wakeAllLocked(ps []*vactor) {
	c.blocked -= len(ps)
	for _, p := range ps {
		c.ready.push(runnable{p: p})
	}
}

// maxIdleWorkers bounds the process-wide pool of idle workers. Idle stacks
// count toward the GC pacer's heap goal, so a larger pool raises peak heap;
// a smaller one keeps re-creating coroutines (about ten allocations each)
// under spawn-heavy load. 1024 keeps both flat on the benchmark workloads.
const maxIdleWorkers = 1024

// workerPool holds idle workers for every VirtualClock in the process. An
// idle worker references no clock.
var workerPool struct {
	sync.Mutex
	idle []*worker
}

// worker is one pooled coroutine. It runs actor bodies back to back: each
// resume either starts the body in w.body or continues the parked actor,
// and returns when that actor parks (yield(false)) or exits (yield(true)).
type worker struct {
	vactor
	body   func()
	resume func() (exited bool, ok bool)
	stop   func()
	yield  func(exited bool) bool
}

// getWorker takes an idle worker from the pool, or starts a new coroutine.
func getWorker() *worker {
	workerPool.Lock()
	if n := len(workerPool.idle); n > 0 {
		w := workerPool.idle[n-1]
		workerPool.idle[n-1] = nil
		workerPool.idle = workerPool.idle[:n-1]
		workerPool.Unlock()
		return w
	}
	workerPool.Unlock()
	w := &worker{}
	w.w = w
	w.resume, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns an idle worker to the pool, or ends its goroutine when
// the pool is full.
func putWorker(w *worker) {
	workerPool.Lock()
	if len(workerPool.idle) < maxIdleWorkers {
		workerPool.idle = append(workerPool.idle, w)
		workerPool.Unlock()
		return
	}
	workerPool.Unlock()
	w.stop()
}

// loop is the worker's coroutine body. It clears w.body before running it
// so that an idle worker keeps nothing of the last actor (or its clock)
// alive.
func (w *worker) loop(yield func(bool) bool) {
	w.yield = yield
	for {
		body := w.body
		w.body = nil
		body()
		if !yield(true) {
			return
		}
	}
}

// vEvent is the virtual one-shot broadcast.
type vEvent struct {
	c       *VirtualClock
	fired   bool
	waiters []*vactor
}

func (e *vEvent) Fire() {
	e.c.mu.Lock()
	if !e.fired {
		e.fired = true
		e.c.wakeAllLocked(e.waiters)
		e.waiters = nil
	}
	e.c.mu.Unlock()
}

func (e *vEvent) Wait() {
	e.c.mu.Lock()
	if e.fired {
		e.c.mu.Unlock()
		return
	}
	e.c.checkCanBlockLocked("Event.Wait")
	p, _ := e.c.selfLocked()
	e.waiters = append(e.waiters, p)
	e.c.waitLocked(p)
}

// fifo is a head-indexed growable FIFO used for the queue item buffer and
// waiter list: push appends, pop advances a head index (no reslice, no
// per-pop copy), and the buffer compacts — copying only the live suffix to
// the front — once the dead prefix passes half the backing array. Push and
// pop stay amortized O(1) and memory stays O(live depth), even for queues
// that never fully drain.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.buf):
		f.buf = f.buf[:0]
		f.head = 0
	case f.head > len(f.buf)/2:
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero // drop stale copies so they don't pin objects
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// vQueue is the virtual unbounded FIFO. A Put with waiters present hands
// the item directly to the longest-waiting actor. Both the item buffer and
// the waiter list reuse their backing arrays across pops, so a warm
// handoff allocates nothing.
type vQueue struct {
	c       *VirtualClock
	items   fifo[any]
	waiters fifo[*vactor]
}

func (q *vQueue) Put(v any) {
	q.c.mu.Lock()
	if q.waiters.len() > 0 {
		p := q.waiters.pop()
		p.val = v
		q.c.wakeOneLocked(p)
	} else {
		q.items.push(v)
	}
	q.c.mu.Unlock()
}

func (q *vQueue) Get() any {
	q.c.mu.Lock()
	if q.items.len() > 0 {
		v := q.items.pop()
		q.c.mu.Unlock()
		return v
	}
	q.c.checkCanBlockLocked("Queue.Get")
	p, _ := q.c.selfLocked()
	q.waiters.push(p)
	q.c.waitLocked(p)
	v := p.val
	p.val = nil
	return v
}

// vGroup is the virtual WaitGroup analogue.
type vGroup struct {
	c       *VirtualClock
	n       int
	waiters []*vactor
}

func (g *vGroup) Add(n int) {
	g.c.mu.Lock()
	g.n += n
	if g.n < 0 {
		g.c.mu.Unlock()
		panic("netsim: negative Group counter")
	}
	g.c.mu.Unlock()
}

func (g *vGroup) Done() {
	g.c.mu.Lock()
	g.n--
	if g.n < 0 {
		g.c.mu.Unlock()
		panic("netsim: negative Group counter")
	}
	if g.n == 0 {
		g.c.wakeAllLocked(g.waiters)
		g.waiters = nil
	}
	g.c.mu.Unlock()
}

func (g *vGroup) Wait() {
	g.c.mu.Lock()
	if g.n == 0 {
		g.c.mu.Unlock()
		return
	}
	g.c.checkCanBlockLocked("Group.Wait")
	p, _ := g.c.selfLocked()
	g.waiters = append(g.waiters, p)
	g.c.waitLocked(p)
}

// timerEntry is one pending deadline: either a parked actor to wake (p set)
// or a callback to run inline (fn set). Ordering is (deadline, arming
// sequence), making same-instant wakeups — and the interleaving of
// callbacks with actor wakeups — deterministic.
type timerEntry struct {
	at  time.Duration
	seq uint64
	p   *vactor
	fn  func()
}

func (e timerEntry) before(o timerEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timerHeap is a 4-ary min-heap of value entries. Compared to
// container/heap over a slice of pointers, it avoids the interface boxing
// on every Push/Pop and halves the tree depth (sift-down dominates pops;
// four comparisons per level beats two levels of two).
type timerHeap struct {
	a []timerEntry
}

func (h *timerHeap) len() int { return len(h.a) }

func (h *timerHeap) push(e timerEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.a[i].before(h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *timerHeap) pop() timerEntry {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = timerEntry{} // release the fn/p references
	a = a[:n]
	h.a = a
	i := 0
	for {
		min := i
		first := i*4 + 1
		last := first + 4
		if last > n {
			last = n
		}
		for ci := first; ci < last; ci++ {
			if a[ci].before(a[min]) {
				min = ci
			}
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}
