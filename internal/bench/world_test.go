package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/history"
)

// TestLedgerCasualtyRule: completed operations land in the phase they
// started in, failed ones in the phase they died in, instants past the
// last phase clamp into it, and each phase keeps ledger order.
func TestLedgerCasualtyRule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	phases := []faults.Phase{
		{Name: "healthy", Start: 0, End: ms(10)},
		{Name: "fault", Start: ms(10), End: ms(20)},
	}
	boom := errors.New("timed out")
	led := ledger{
		{{start: ms(8), end: ms(12)}, {start: ms(8), end: ms(12), err: boom}},
		{{start: ms(1), end: ms(2)}, {start: ms(15), end: ms(30), err: boom}},
	}
	got := led.byPhase(phases)
	want := [][]opRecord{
		{led[0][0], led[1][0]},
		{led[0][1], led[1][1]},
	}
	if len(got) != len(want) {
		t.Fatalf("%d phases, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("phase %s: %d records, want %d", phases[i].Name, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("phase %s record %d = %+v, want %+v", phases[i].Name, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestLabelCollisionFailsEveryCheck: a history recorded by two clients
// sharing a label is untrustworthy, so the one check path must fail it
// both in an experiment's CheckReport and in a hunt world's verdict
// (either of the hunt's recorders).
func TestLabelCollisionFailsEveryCheck(t *testing.T) {
	collided := func() *history.Recorder {
		rec := history.NewRecorder()
		info := binding.OpInfo{ID: 1, Client: "dup", Name: "get", Key: "k"}
		rec.OpStart(info)
		rec.OpStart(info)
		return rec
	}

	report := buildCheckReport(collided(), 2, "registers")
	if report.Violations() == 0 || !strings.Contains(report.SessionViolations[0], "1 client-label collisions") {
		t.Errorf("check report missed the collision: %+v", report)
	}
	for name, out := range map[string]*huntOutcome{
		"session recorder": huntVerdict(collided(), history.NewRecorder()),
		"ladder recorder":  huntVerdict(history.NewRecorder(), collided()),
	} {
		if len(out.violations) == 0 || out.violations[0].Guarantee != "history-integrity" {
			t.Errorf("%s: hunt verdict missed the collision: %v", name, out.violations)
		}
	}
}

// TestReportsPrintFaultTransitions: the fault study and the failover
// always print the applied transition log, the replay record their JSON
// also carries.
func TestReportsPrintFaultTransitions(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	fs, err := FaultStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]struct {
		text        string
		transitions []string
	}{
		"faultstudy": {fs.Text(), fs.Transitions},
		"failover":   {fo.Text(), fo.Transitions},
	} {
		if len(r.transitions) == 0 {
			t.Fatalf("%s: no transitions recorded", name)
		}
		if !strings.Contains(r.text, "fault transitions:\n") {
			t.Errorf("%s: report lacks the transition log:\n%s", name, r.text)
		}
		for _, tr := range r.transitions {
			if !strings.Contains(r.text, "  "+tr+"\n") {
				t.Errorf("%s: report lacks transition %q", name, tr)
			}
		}
	}
}
