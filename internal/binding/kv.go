package binding

import (
	"context"

	"correctables/internal/core"
)

// KV is the typed application-facing facade of a key-value binding
// (cassandra, causal): Get and Put return typed Correctables
// (Correctable[[]byte] / Correctable[Ack]), so applications never touch
// interface{} or type assertions.
type KV struct {
	client *Client
}

// NewKV builds the typed facade over a binding (wrapping it in a Client
// configured with opts — observers, operation timeout, label).
func NewKV(b Binding, opts ...Option) *KV {
	return &KV{client: NewClient(b, opts...)}
}

// Client returns the underlying Correctables client (for level inspection
// and session creation).
func (kv *KV) Client() *Client { return kv.client }

// Session opens a session over the facade's client: reads through it are
// guaranteed read-your-writes and monotonic reads per key (see Session).
func (kv *KV) Session(opts ...SessionOption) *Session {
	return NewSession(kv.client, opts...)
}

// Get reads key with incremental consistency guarantees: one view per
// requested level (all offered levels when none are given), weakest first.
func (kv *KV) Get(ctx context.Context, key string, levels ...core.Level) *core.Correctable[[]byte] {
	return Invoke[[]byte](ctx, kv.client, Get{Key: key}, levels...)
}

// GetWeak reads key at the weakest offered level (single view).
func (kv *KV) GetWeak(ctx context.Context, key string) *core.Correctable[[]byte] {
	return InvokeWeak[[]byte](ctx, kv.client, Get{Key: key})
}

// GetStrong reads key at the strongest offered level (single view).
func (kv *KV) GetStrong(ctx context.Context, key string) *core.Correctable[[]byte] {
	return InvokeStrong[[]byte](ctx, kv.client, Get{Key: key})
}

// Put writes key. The returned Correctable closes with an Ack once the
// write is acknowledged at the binding's strongest level.
func (kv *KV) Put(ctx context.Context, key string, value []byte) *core.Correctable[Ack] {
	return InvokeStrong[Ack](ctx, kv.client, Put{Key: key, Value: value})
}
