// Command icgbench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated substrates. Each experiment prints rows
// mirroring the corresponding figure; latencies are always reported in
// model time (the paper's axes).
//
// By default experiments run on the virtual clock: a deterministic
// discrete-event scheduler that never sleeps, so whole-figure sweeps
// finish at CPU speed and the same seed reproduces byte-identical output.
// -clock=wall selects the scaled real-time mode instead (useful for
// watching an experiment unfold); -scale then sets the model-to-wall
// speedup.
//
// Usage:
//
//	icgbench -list                           # every experiment, scenario, profile
//	icgbench -exp fig5                       # one experiment, virtual time
//	icgbench -exp all -quick                 # smoke-run the paper figures
//	icgbench -exp fig6 -clock=wall -scale .5 # real-time-ish demo run
//
// Beyond the paper's figures: ablations; faultstudy — YCSB under a
// deterministic fault schedule (-faults selects the scenario; the report
// prints the applied transition log); failover — leader partition and
// recovery; overload — metastable retry storm vs admission control; sweep —
// quorum x geography; capacity — the sharded-plane capacity study (open-loop session
// storms vs shard count, a million sessions on one virtual clock at full
// size); and hunt — the nemesis hunt: a sweep of seeds x composed
// fault-track profiles, every recorded history run through every checker,
// each violating world shrunk by delta debugging into a replayable repro:
//
//	icgbench -exp hunt -hunt-seeds 1000            # the nightly budget
//	icgbench -exp hunt -hunt-plant                 # self-test: find the planted bug
//	icgbench -exp hunt -repro hunt-repros/x.json   # replay an archived repro
//
// Every experiment goes through one path: it returns a bench.Report whose
// table is printed, whose result -json writes as the experiment's JSON
// artifact, and whose tracer -trace writes as Chrome trace-event JSON
// (faultstudy, failover and overload record one; -trace on any other
// experiment exits 2). Checked experiments (faultstudy with -check,
// failover, overload, capacity, hunt) exit 3 when a consistency violation
// is found; the seed replays it byte-identically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"correctables/internal/bench"
	"correctables/internal/faults"
)

// experiment is one icgbench entry: the single registry below generates
// the -exp help text, the -list output, and the "all" dispatch, so they
// cannot drift apart.
type experiment struct {
	name string
	desc string
	// paper experiments run under -exp all (the figures, in order); the
	// extras are opt-in by name.
	paper bool
	// traced experiments record a trace when Config.Trace is set; -trace
	// is refused for the others.
	traced bool
	run    func(bench.Config) (bench.Report, error)
}

var experiments = []experiment{
	{"fig5", "single-request latency per level (Cassandra binding)", true, false, table(bench.Fig5, bench.FormatFig5)},
	{"fig6", "YCSB latency vs throughput", true, false, table(bench.Fig6, bench.FormatFig6)},
	{"fig7", "preliminary-vs-final divergence", true, false, table(bench.Fig7, bench.FormatFig7)},
	{"fig8", "bandwidth overhead of incremental views", true, false, table(bench.Fig8, bench.FormatFig8)},
	{"fig9", "ZooKeeper latency gaps per level", true, false, table(bench.Fig9, bench.FormatFig9)},
	{"fig10", "dequeue bandwidth (Correctable ZK queue)", true, false, table(bench.Fig10, bench.FormatFig10)},
	{"fig11", "speculation case studies", true, false, table(bench.Fig11, bench.FormatFig11)},
	{"fig12", "ticket selling end-to-end", true, false, table(bench.Fig12, bench.FormatFig12)},
	{"ablations", "replication-lag and flush-cost ablations", false, false, table(bench.Ablations, bench.FormatAblations)},
	{"faultstudy", "YCSB under a deterministic fault schedule (-faults, -check)", false, true,
		func(c bench.Config) (bench.Report, error) { return bench.FaultStudy(c) }},
	{"failover", "leader partition mid-run: recovery time and availability window", false, true,
		func(c bench.Config) (bench.Report, error) { return bench.Failover(c) }},
	{"overload", "open-loop burst: metastable retry storm vs admission control", false, true,
		func(c bench.Config) (bench.Report, error) { return bench.Overload(c) }},
	{"sweep", "read latency vs quorum size and RTT geography", false, false,
		func(c bench.Config) (bench.Report, error) { return bench.Sweep(c), nil }},
	{"capacity", "sharded-plane capacity study: 10^6 open-loop sessions vs shard count", false, false,
		func(c bench.Config) (bench.Report, error) { return bench.Capacity(c), nil }},
	{"hunt", "nemesis hunt: seeds x composed fault tracks, all checkers, shrinking repros", false, false,
		func(c bench.Config) (bench.Report, error) { return bench.Hunt(c, huntOptions()) }},
}

// table registers a figure whose result carries no checks and no tracer.
func table[T any](run func(bench.Config) T, render func(T) string) func(bench.Config) (bench.Report, error) {
	return func(c bench.Config) (bench.Report, error) { return bench.NewTable(run(c), render), nil }
}

func expNames(keep func(experiment) bool) []string {
	var out []string
	for _, e := range experiments {
		if keep(e) {
			out = append(out, e.name)
		}
	}
	return out
}

func expByName(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Registry filters for expNames.
func everyExp(experiment) bool    { return true }
func paperExp(e experiment) bool  { return e.paper }
func tracedExp(e experiment) bool { return e.traced }

// Hunt flags, read by the hunt entry.
var (
	huntOpts     bench.HuntOptions
	huntProfiles string
	reproDir     string
)

func huntOptions() bench.HuntOptions {
	opts := huntOpts
	for _, p := range strings.Split(huntProfiles, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opts.Profiles = append(opts.Profiles, p)
		}
	}
	return opts
}

// archiveRepros writes every hunt finding's shrunk repro under reproDir.
func archiveRepros(res *bench.HuntResult, stderr io.Writer) error {
	if err := os.MkdirAll(reproDir, 0o755); err != nil {
		return err
	}
	for _, f := range res.Findings {
		path := filepath.Join(reproDir, fmt.Sprintf("hunt-%s-%d.json", f.Profile, f.Seed))
		if err := bench.WriteReport(path, f.Repro); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "icgbench: repro archived: %s\n", path)
	}
	return nil
}

// replay replays an archived hunt repro and reports whether the outcome is
// byte-identical to the archived violation.
func replay(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "icgbench: %v\n", err)
		return 2
	}
	r, err := bench.ParseHuntRepro(data)
	if err != nil {
		fmt.Fprintf(stderr, "icgbench: %v\n", err)
		return 2
	}
	res, err := bench.HuntReplay(r)
	if err != nil {
		fmt.Fprintf(stderr, "icgbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "replay %s: profile %s seed %d (planted=%v)\n", path, r.Profile, r.Seed, r.Planted)
	fmt.Fprintf(stdout, "  archived: %s\n", r.Violation)
	fmt.Fprintf(stdout, "  replayed: %s\n", res.Violation)
	if res.Identical {
		fmt.Fprintln(stdout, "  IDENTICAL: violation and history digest reproduce byte-for-byte")
		return 0
	}
	fmt.Fprintf(stdout, "  archived digest: %s\n  replayed digest: %s\n", r.HistoryDigest, res.HistoryDigest)
	fmt.Fprintln(stderr, "icgbench: replay DIVERGED from the archived repro")
	return 3
}

// list prints the experiment registry, the fault-scenario catalog, and the
// random-profile names.
func list(stdout io.Writer) {
	fmt.Fprintln(stdout, "experiments (-exp):")
	for _, e := range experiments {
		tag := "      "
		if e.paper {
			tag = "paper "
		}
		fmt.Fprintf(stdout, "  %-10s %s%s\n", e.name, tag, e.desc)
	}
	fmt.Fprintln(stdout, "\nfault scenarios (-faults, faultstudy):")
	for _, name := range faults.ScenarioNames() {
		s, err := faults.ScenarioByName(name, time.Second)
		if err != nil {
			continue
		}
		fmt.Fprintf(stdout, "  %-20s %s\n", name, s.Description)
	}
	fmt.Fprintln(stdout, "\nrandom fault profiles (-faults <seed>:<profile>, -hunt-profiles):")
	for _, name := range faults.ProfileNames() {
		fmt.Fprintf(stdout, "  %s\n", name)
	}
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs icgbench with args and returns the process exit status: 0 on
// success, 1 on a failed artifact write, 2 on bad usage or a failed
// experiment, 3 on a consistency violation.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp = fs.String("exp", "all",
			"experiment to run: 'all' (the paper figures), or a comma list of "+strings.Join(expNames(everyExp), ", "))
		clockMode = fs.String("clock", "virtual", "clock mode: 'virtual' (deterministic, CPU speed) or 'wall' (scaled real time)")
		scale     = fs.Float64("scale", 0.25, "model-to-wall time scale in -clock=wall mode (1.0 = real time)")
		seed      = fs.Int64("seed", 42, "random seed")
		quick     = fs.Bool("quick", false, "reduced samples/durations (smoke run)")
		faultSpec = fs.String("faults", "",
			"fault scenario for -exp faultstudy: one of "+strings.Join(faults.ScenarioNames(), ", ")+
				", or '<seed>:<profile>' (profiles: "+strings.Join(faults.ProfileNames(), ", ")+
				") for a replayable random schedule; default minority-partition")
		check = fs.Bool("check", false,
			"faultstudy: run a consistency-checked session population alongside the measured one and verify its "+
				"recorded history (session guarantees + per-key linearizability); exit nonzero on any violation")
		showList = fs.Bool("list", false, "list experiments, fault scenarios and profiles, then exit")
		repro    = fs.String("repro", "", "replay an archived hunt repro JSON and verify byte-identical reproduction")
		jsonOut  = fs.String("json", "", "write the experiment's result as JSON to this path")
		traceOut = fs.String("trace", "", "record model-time spans and sampled gauges, and write them as Chrome trace-event JSON "+
			"(Perfetto-loadable) to this path ("+strings.Join(expNames(tracedExp), ", ")+")")
	)
	fs.IntVar(&huntOpts.Seeds, "hunt-seeds", 0, "hunt: seeds swept per profile (default 1000, or 16 with -quick)")
	fs.Int64Var(&huntOpts.StartSeed, "hunt-start", 0, "hunt: first seed (default -seed)")
	fs.StringVar(&huntProfiles, "hunt-profiles", "", "hunt: comma list of fault profiles (default tracks-mild,tracks-harsh)")
	fs.IntVar(&huntOpts.Workers, "hunt-workers", 0, "hunt: parallel worlds (default GOMAXPROCS)")
	fs.BoolVar(&huntOpts.Plant, "hunt-plant", false, "hunt: enable the planted version-corruption bug (self-test; the hunt must find it)")
	fs.StringVar(&reproDir, "repro-dir", "hunt-repros", "hunt: directory to archive shrunk repro JSONs in on findings")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *showList {
		list(stdout)
		return 0
	}
	if *repro != "" {
		return replay(*repro, stdout, stderr)
	}

	var wall bool
	switch *clockMode {
	case "virtual":
	case "wall":
		wall = true
	default:
		fmt.Fprintf(stderr, "icgbench: unknown -clock mode %q (have virtual, wall)\n", *clockMode)
		return 2
	}

	var names []string
	if *exp == "all" {
		names = expNames(paperExp)
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := expByName(name); !ok {
				fmt.Fprintf(stderr, "icgbench: unknown experiment %q (have %s)\n",
					name, strings.Join(expNames(everyExp), ", "))
				return 2
			}
			names = append(names, name)
		}
	}
	if (*jsonOut != "" || *traceOut != "") && len(names) > 1 {
		fmt.Fprintf(stderr, "icgbench: -json and -trace write one experiment's artifact; %d experiments selected (%s)\n",
			len(names), strings.Join(names, ", "))
		return 2
	}
	if *traceOut != "" {
		if e, _ := expByName(names[0]); !e.traced {
			fmt.Fprintf(stderr, "icgbench: -trace: %s records no trace (traced experiments: %s)\n",
				e.name, strings.Join(expNames(tracedExp), ", "))
			return 2
		}
	}
	cfg := bench.Config{Wall: wall, Scale: *scale, Seed: *seed, Quick: *quick,
		Faults: *faultSpec, Check: *check, Trace: *traceOut != ""}

	for _, name := range names {
		e, _ := expByName(name)
		start := time.Now()
		rep, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "icgbench: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, rep.Text())
		if *jsonOut != "" {
			if err := bench.WriteReport(*jsonOut, rep); err != nil {
				fmt.Fprintf(stderr, "icgbench: writing %s: %v\n", *jsonOut, err)
				return 1
			}
		}
		if *traceOut != "" {
			trc, reg := rep.Tracer()
			if err := bench.WriteTrace(*traceOut, trc, reg); err != nil {
				fmt.Fprintf(stderr, "icgbench: writing %s: %v\n", *traceOut, err)
				return 1
			}
		}
		if n := rep.Violations(); n > 0 {
			if res, ok := rep.(*bench.HuntResult); ok {
				// Archive every shrunk repro before failing the gate.
				if err := archiveRepros(res, stderr); err != nil {
					fmt.Fprintf(stderr, "icgbench: %v\n", err)
					return 1
				}
			}
			fmt.Fprintf(stderr, "icgbench: consistency check FAILED with %d violations (seed %d replays them byte-identically)\n",
				n, *seed)
			return 3
		}
		fmt.Fprintf(stdout, "-- %s completed in %v (wall)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
