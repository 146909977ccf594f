package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// tracedFaultStudy runs the quick fault study with the observability plane
// attached and returns its Chrome trace export.
func tracedFaultStudy(t *testing.T, seed int64) (*FaultStudyResult, []byte) {
	t.Helper()
	res, err := FaultStudy(Config{Quick: true, Seed: seed, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	trc, reg := res.Tracer()
	if trc == nil {
		t.Fatal("Config.Trace run returned no tracer")
	}
	var buf bytes.Buffer
	if err := trc.WriteChrome(&buf, reg); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestTraceExportDeterministic: same-seed traced runs must export
// byte-identical Chrome trace JSON — the trace is part of the replay
// witness, so lane assignment, track interning order and counter
// sampling must all be deterministic.
func TestTraceExportDeterministic(t *testing.T) {
	_, a := tracedFaultStudy(t, 42)
	_, b := tracedFaultStudy(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed trace exports differ")
	}
	var events []map[string]any
	if err := json.Unmarshal(a, &events); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace export is empty")
	}
}

// TestTraceDoesNotPerturbResults: a traced run must report exactly the
// rows an untraced same-seed run reports — observation cannot move model
// time.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	traced, _ := tracedFaultStudy(t, 7)
	plain, err := FaultStudy(Config{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(traced.Rows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plain.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traced rows differ from untraced rows:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceDecompositionAndTimeseries: the traced fault study must emit a
// decomposition row per phase with real signal in it (server and quorum
// activity are always present) and non-empty sampled gauges.
func TestTraceDecompositionAndTimeseries(t *testing.T) {
	res, _ := tracedFaultStudy(t, 42)
	if len(res.Decomp) != len(res.Rows) {
		t.Fatalf("decomposition rows = %d, want one per phase (%d)", len(res.Decomp), len(res.Rows))
	}
	var server, quorum float64
	for _, d := range res.Decomp {
		server += d.ServerMs
		quorum += d.QuorumMs
	}
	if server == 0 || quorum == 0 {
		t.Errorf("decomposition has no server (%v) or quorum (%v) time", server, quorum)
	}
	if len(res.Timeseries) == 0 {
		t.Fatal("no sampled time-series")
	}
	for _, ts := range res.Timeseries {
		if len(ts.Points) == 0 {
			t.Errorf("gauge %q sampled no points", ts.Name)
		}
	}
}
