package bench

import (
	"encoding/json"
	"os"
	"time"

	"correctables/internal/trace"
)

// Report is the one contract every experiment result satisfies, so one
// loop in cmd/icgbench prints, exports and gates them all. The result
// value itself is the experiment's JSON artifact (WriteReport marshals
// it); Text is its printed table; Violations counts what its history
// checks found (0 for unchecked experiments); Tracer returns the span
// tracer and gauge registry it recorded, both nil when the run was
// untraced.
type Report interface {
	Text() string
	Violations() int
	Tracer() (*trace.Tracer, *trace.Registry)
}

// marshalReport is the one JSON encoding every experiment artifact goes
// through (BENCH_*.json, hunt repros): two-space indent, stable field
// order from the result structs.
func marshalReport(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// WriteReport marshals an experiment result (or a hunt repro) and writes
// it to path with a trailing newline — the shared writer behind every
// -json artifact.
func WriteReport(path string, v any) error {
	data, err := marshalReport(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteTrace writes a recorded tracer (plus the registry's sampled gauges
// as counter tracks, when non-nil) as Chrome trace-event JSON to path —
// loadable in Perfetto / chrome://tracing. Same-seed virtual-clock runs
// produce byte-identical files.
func WriteTrace(path string, trc *trace.Tracer, reg *trace.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trc.WriteChrome(f, reg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Table adapts a result with no checks and no tracer — a paper figure or
// the ablations — to Report: Data is the JSON artifact and render prints
// it.
type Table[T any] struct {
	Data   T
	render func(T) string
}

// NewTable pairs a figure's result with its renderer.
func NewTable[T any](data T, render func(T) string) Table[T] {
	return Table[T]{Data: data, render: render}
}

// Text implements Report.
func (t Table[T]) Text() string { return t.render(t.Data) }

// Violations implements Report: figures run no history checks.
func (Table[T]) Violations() int { return 0 }

// Tracer implements Report: figures are never traced.
func (Table[T]) Tracer() (*trace.Tracer, *trace.Registry) { return nil, nil }

// MarshalJSON marshals the data alone.
func (t Table[T]) MarshalJSON() ([]byte, error) { return json.Marshal(t.Data) }

// Traced is the observability plane's output (Config.Trace runs only),
// embedded in every traced result: the per-phase latency decomposition
// from the span tracer and the registry's sampled gauges. The tracer and
// registry themselves do not marshal; Tracer hands them to the Chrome
// trace export (icgbench -trace).
type Traced struct {
	Decomp     []PhaseDecomp      `json:"latency_decomposition,omitempty"`
	Timeseries []trace.TimeSeries `json:"timeseries,omitempty"`

	trc *trace.Tracer
	reg *trace.Registry
}

// Tracer implements Report.
func (t *Traced) Tracer() (*trace.Tracer, *trace.Registry) { return t.trc, t.reg }

// PhaseDecomp is one phase's latency decomposition: model time accumulated
// per span category inside the phase window. Categories overlap by
// construction (a quorum wait covers its peers' net and server spans), so
// the columns decompose activity, not wall latency: each is the plain sum
// of span durations in the window — the queueing signal, doubled when two
// ops wait on the same server, which is exactly what a decomposition
// should show.
type PhaseDecomp struct {
	Phase string `json:"phase"`

	OpMs         float64 `json:"op_ms"`
	AdmissionMs  float64 `json:"admission_ms"`
	NetClientMs  float64 `json:"net_client_ms"`
	NetReplicaMs float64 `json:"net_replica_ms"`
	QueueMs      float64 `json:"queue_ms"`
	ServerMs     float64 `json:"server_ms"`
	FlushMs      float64 `json:"flush_ms"`
	QuorumMs     float64 `json:"quorum_ms"`
	HintMs       float64 `json:"hint_ms"`
	ElectionMs   float64 `json:"election_ms"`
}

// decompRow clips the tracer's spans to [start, end) and folds the
// category totals into one report row.
func decompRow(trc *trace.Tracer, phase string, start, end time.Duration) PhaseDecomp {
	tt := trc.CategoryTotals(start, end)
	return PhaseDecomp{
		Phase:        phase,
		OpMs:         tt.Ms(trace.CatOp),
		AdmissionMs:  tt.Ms(trace.CatAdmission),
		NetClientMs:  tt.Ms(trace.CatNetClient),
		NetReplicaMs: tt.Ms(trace.CatNetReplica),
		QueueMs:      tt.Ms(trace.CatQueue),
		ServerMs:     tt.Ms(trace.CatServer),
		FlushMs:      tt.Ms(trace.CatFlush),
		QuorumMs:     tt.Ms(trace.CatQuorum),
		HintMs:       tt.Ms(trace.CatHint),
		ElectionMs:   tt.Ms(trace.CatElection),
	}
}
