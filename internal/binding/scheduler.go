package binding

import (
	"time"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// SchedulerProvider is the optional interface a Binding implements to tell
// the client library how its Correctables should spawn goroutines and
// block. Bindings over a simulated substrate return the substrate clock's
// scheduler, so that waiting on a Correctable parks a simulation actor —
// under netsim's VirtualClock this is what keeps the discrete-event
// scheduler live (and deterministic) while application code blocks in
// Final or WaitLevel.
type SchedulerProvider interface {
	Scheduler() core.Scheduler
}

// SchedulerFor adapts a netsim clock to the core Scheduler interface.
// Bindings use it to implement SchedulerProvider in one line.
func SchedulerFor(c netsim.Clock) core.Scheduler { return clockScheduler{c} }

type clockScheduler struct{ c netsim.Clock }

func (s clockScheduler) Go(fn func())         { s.c.Go(fn) }
func (s clockScheduler) NewEvent() core.Event { return s.c.NewEvent() }
func (s clockScheduler) Now() time.Duration   { return s.c.Now() }

// After rides the clock's callback-timer heap: no actor spawn, no
// coroutine switch, deterministic interleave with traffic. fn must not
// block (Controller methods never do).
func (s clockScheduler) After(d time.Duration, fn func()) { s.c.RunAfter(d, fn) }
