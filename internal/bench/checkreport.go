package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"correctables/internal/history"
)

// CheckReport is the outcome of verifying a checked session population's
// recorded history.
type CheckReport struct {
	// Clients and Ops size the checked population and its history.
	Clients int `json:"clients"`
	Ops     int `json:"ops"`
	// SessionViolations and LinViolations render each detected violation
	// with its witness subsequence (empty = verified clean). Reproduce any
	// of them with the run's Seed: replay is byte-identical.
	SessionViolations []string `json:"session_violations"`
	LinViolations     []string `json:"linearizability_violations"`
	// Inconclusive lists keys whose linearizability search exhausted its
	// budget (not violations).
	Inconclusive []string `json:"inconclusive_keys,omitempty"`
	// HistoryDigest is the SHA-256 of the serialized history: same seed,
	// same digest — the byte-identical-replay witness.
	HistoryDigest string `json:"history_digest"`

	// linModel is the sequential model the linearizability search ran
	// against ("registers", "queues", or "" for none).
	linModel string
}

// Violations reports the total number of detected violations; a nil
// report (an unchecked run) has none.
func (r *CheckReport) Violations() int {
	if r == nil {
		return 0
	}
	return len(r.SessionViolations) + len(r.LinViolations)
}

// Text renders the check summary every checked experiment prints under
// its table: the population and history digest, then an OK line per
// checker family or every violation with its witness, then any
// inconclusive keys. seed is the run's seed, which replays the history.
func (r *CheckReport) Text(title string, seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d session clients, %d ops, history sha256 %.12s…\n",
		title, r.Clients, r.Ops, r.HistoryDigest)
	if n := r.Violations(); n == 0 {
		b.WriteString("  session guarantees (RYW, monotonic reads, WFR): OK\n")
		switch r.linModel {
		case "registers":
			b.WriteString("  per-key register linearizability: OK\n")
		case "queues":
			b.WriteString("  per-queue linearizability: OK\n")
		}
	} else {
		fmt.Fprintf(&b, "  %d VIOLATIONS (replay with -seed %d):\n", n, seed)
		for _, v := range r.SessionViolations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		for _, v := range r.LinViolations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	for _, k := range r.Inconclusive {
		fmt.Fprintf(&b, "  inconclusive (budget exhausted): %s\n", k)
	}
	return b.String()
}

// buildCheckReport verifies a recorded history with the default checker
// set (checkHistory) and returns the report every checked experiment
// shares.
func buildCheckReport(recorder *history.Recorder, clients int, linModel string) *CheckReport {
	ops := recorder.Ops()
	report := &CheckReport{Clients: clients, Ops: len(ops), linModel: linModel}
	session, lin, inconclusive := checkHistory(ops, recorder.Collisions(), linModel)
	for _, v := range session {
		report.SessionViolations = append(report.SessionViolations, v.String())
	}
	for _, v := range lin {
		report.LinViolations = append(report.LinViolations, v.String())
	}
	report.Inconclusive = inconclusive
	sum := sha256.Sum256(history.SerializeOps(ops))
	report.HistoryDigest = hex.EncodeToString(sum[:])
	return report
}

// checkHistory runs the default checker set over one recorded history —
// the single check path behind every checked experiment and every hunt
// world. The set is: client-label collisions (collisions is the
// recorder's count; any means the history is untrustworthy), the session
// guarantees (read-your-writes, monotonic reads, writes-follow-reads),
// cross-object writes-follow-reads (sound for the checked stores — their
// version tokens come from one store-wide counter, zxid or version, so
// cross-key comparison is meaningful), and the causal-cut checker over the
// incremental ladder. linModel additionally runs the Wing & Gong search
// against a sequential model: "registers", "queues", or "" for none; its
// violations and inconclusive keys come back separately.
func checkHistory(ops []history.Op, collisions int, linModel string) (session, lin []history.Violation, inconclusive []string) {
	if collisions > 0 {
		session = append(session, history.Violation{
			Guarantee: "history-integrity",
			Detail:    fmt.Sprintf("%d client-label collisions — the recorded history is untrustworthy", collisions),
		})
	}
	session = append(session, history.CheckSessionGuarantees(ops)...)
	session = append(session, history.CheckCrossObjectWFR(ops)...)
	session = append(session, history.CheckCausalCut(ops)...)
	switch linModel {
	case "registers":
		lin, inconclusive = history.CheckRegisters(ops, 0)
	case "queues":
		lin, inconclusive = history.CheckQueues(ops, 0)
	}
	return session, lin, inconclusive
}
