package cassandra

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// BindingConfig tunes the Correctables binding for a cassandra cluster.
type BindingConfig struct {
	// StrongQuorum is the read quorum used for LevelStrong reads (the
	// paper's CC2 uses 2, CC3 uses 3). Default 2.
	StrongQuorum int
	// WriteQuorum is the write quorum (paper: 1). Default 1.
	WriteQuorum int
}

func (b BindingConfig) withDefaults() BindingConfig {
	if b.StrongQuorum == 0 {
		b.StrongQuorum = 2
	}
	if b.WriteQuorum == 0 {
		b.WriteQuorum = 1
	}
	return b
}

// Binding adapts a cassandra Client to the Correctables binding API. It
// offers two consistency levels: weak (R=1, the coordinator's local state)
// and strong (R=StrongQuorum, LWW-reconciled). When both levels are
// requested on a Correctable cluster, a single storage request yields both
// views (server-side ICG, §5.2); on a vanilla cluster the binding falls
// back to two independent requests, the client-side composition the paper
// describes as its conservative baseline.
type Binding struct {
	client *Client
	cfg    BindingConfig
}

var _ binding.Binding = (*Binding)(nil)

// NewBinding wraps client.
func NewBinding(client *Client, cfg BindingConfig) *Binding {
	return &Binding{client: client, cfg: cfg.withDefaults()}
}

// Client returns the underlying storage client.
func (b *Binding) Client() *Client { return b.client }

// ConsistencyLevels implements binding.Binding.
func (b *Binding) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}

// Close implements binding.Binding.
func (b *Binding) Close() error { return nil }

// SubmitOperation implements binding.Binding. The client library bounds
// each invocation with the binding's DefaultOpTimeout (model time), so the
// protocol paths below run unguarded: a late completion's views are
// refused by the closed Correctable.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	b.clock().Go(func() {
		switch o := op.(type) {
		case binding.Get:
			b.get(o, levels, cb)
		case binding.Put:
			b.put(o, levels, cb)
		default:
			cb(binding.Result{Err: fmt.Errorf("%w: cassandra has no %q", binding.ErrUnsupportedOperation, op.OpName())})
		}
	})
}

// clock returns the cluster's simulation clock.
func (b *Binding) clock() netsim.Clock { return b.client.cluster.tr.Clock() }

func (b *Binding) get(op binding.Get, levels core.Levels, cb binding.Callback) {
	wantWeak := levels.Contains(core.LevelWeak)
	wantStrong := levels.Contains(core.LevelStrong)
	// v.Value is already the view's private copy (see Client.read), so it
	// is handed over as is.
	emit := func(v ReadView, level core.Level) {
		cb(binding.Result{
			Value:   v.Value,
			Level:   level,
			Version: v.Version.Token(),
		})
	}
	switch {
	case wantWeak && wantStrong:
		if b.client.cluster.cfg.Correctable {
			// One request, two responses (preliminary + final).
			err := b.client.read(op.Key, b.cfg.StrongQuorum, true, func(v ReadView) {
				emit(v, v.Level)
			})
			if err != nil {
				cb(binding.Result{Err: err})
			}
			return
		}
		// Vanilla store: two independent requests (weak first). The strong
		// one determines completion; this is the baseline the paper notes
		// costs extra bandwidth and risks WAN reordering.
		weakDone := b.clock().NewEvent()
		b.clock().Go(func() {
			defer weakDone.Fire()
			_ = b.client.read(op.Key, 1, false, func(v ReadView) {
				emit(v, core.LevelWeak)
			})
		})
		err := b.client.read(op.Key, b.cfg.StrongQuorum, false, func(v ReadView) {
			weakDone.Wait() // keep view order monotone
			emit(v, core.LevelStrong)
		})
		if err != nil {
			cb(binding.Result{Err: err})
		}
	case wantStrong:
		if err := b.client.read(op.Key, b.cfg.StrongQuorum, false, func(v ReadView) {
			emit(v, core.LevelStrong)
		}); err != nil {
			cb(binding.Result{Err: err})
		}
	case wantWeak:
		if err := b.client.read(op.Key, 1, false, func(v ReadView) {
			emit(v, core.LevelWeak)
		}); err != nil {
			cb(binding.Result{Err: err})
		}
	default:
		cb(binding.Result{Err: fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, levels)})
	}
}

func (b *Binding) put(op binding.Put, levels core.Levels, cb binding.Callback) {
	// Writes use W=WriteQuorum regardless of the requested read levels; the
	// single acknowledgment closes the Correctable at the strongest
	// requested level, carrying the committed version's token.
	v, err := b.client.write(op.Key, op.Value, b.cfg.WriteQuorum)
	if err != nil {
		cb(binding.Result{Err: err})
		return
	}
	cb(binding.Result{Value: nil, Level: levels.Strongest(), Version: v.Token()})
}

// Scheduler implements binding.SchedulerProvider: Correctables over this
// binding block through the cluster's simulation clock.
func (b *Binding) Scheduler() core.Scheduler {
	return binding.SchedulerFor(b.client.cluster.tr.Clock())
}

// Versions implements binding.Versioner: views carry LWW version tokens.
func (b *Binding) Versions() bool { return true }

// DefaultOpTimeout implements binding.TimeoutProvider: under fault
// injection each invocation is bounded by the cluster's OpTimeout of model
// time (the fault-free path stays unbounded and unchanged).
func (b *Binding) DefaultOpTimeout() time.Duration {
	if b.client.cluster.tr.Interceptor() == nil {
		return 0
	}
	return b.client.cluster.cfg.OpTimeout
}
