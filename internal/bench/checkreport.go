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
// set and returns the report every checked experiment shares. The default
// set is: client-label collisions (an untrustworthy history), the session
// guarantees (read-your-writes, monotonic reads, writes-follow-reads),
// cross-object writes-follow-reads (sound for the checked stores — their
// version tokens come from one store-wide counter, zxid or version, so
// cross-key comparison is meaningful), and the causal-cut checker over the
// incremental ladder. linModel additionally runs the Wing & Gong search
// against a sequential model: "registers", "queues", or "" for none.
func buildCheckReport(recorder *history.Recorder, clients int, linModel string) *CheckReport {
	ops := recorder.Ops()
	report := &CheckReport{Clients: clients, Ops: len(ops), linModel: linModel}
	if n := recorder.Collisions(); n > 0 {
		report.SessionViolations = append(report.SessionViolations,
			fmt.Sprintf("history: %d client-label collisions — the recorded history is untrustworthy", n))
	}
	for _, v := range history.CheckSessionGuarantees(ops) {
		report.SessionViolations = append(report.SessionViolations, v.String())
	}
	for _, v := range history.CheckCrossObjectWFR(ops) {
		report.SessionViolations = append(report.SessionViolations, v.String())
	}
	for _, v := range history.CheckCausalCut(ops) {
		report.SessionViolations = append(report.SessionViolations, v.String())
	}
	switch linModel {
	case "registers":
		linVs, inconclusive := history.CheckRegisters(ops, 0)
		for _, v := range linVs {
			report.LinViolations = append(report.LinViolations, v.String())
		}
		report.Inconclusive = inconclusive
	case "queues":
		linVs, inconclusive := history.CheckQueues(ops, 0)
		for _, v := range linVs {
			report.LinViolations = append(report.LinViolations, v.String())
		}
		report.Inconclusive = inconclusive
	}
	sum := sha256.Sum256(history.SerializeOps(ops))
	report.HistoryDigest = hex.EncodeToString(sum[:])
	return report
}
