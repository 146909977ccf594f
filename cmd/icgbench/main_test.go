package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"correctables/internal/bench"
)

// TestExperimentsReplay runs every registry experiment twice at -quick on
// one seed through the same path the CLI takes and demands byte-identical
// JSON artifacts and, for traced experiments, byte-identical Chrome
// traces. Every run must verify clean, and a report carries a tracer
// exactly when its registry entry says it is traced.
func TestExperimentsReplay(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			cfg := bench.Config{Quick: true, Seed: 42, Trace: e.traced}
			dir := t.TempDir()
			var first [2][]byte
			for i := 0; i < 2; i++ {
				rep, err := e.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := rep.Violations(); n != 0 {
					t.Fatalf("%d consistency violations:\n%s", n, rep.Text())
				}
				if rep.Text() == "" {
					t.Fatal("empty table")
				}
				js := artifact(t, filepath.Join(dir, "report.json"), func(path string) error {
					return bench.WriteReport(path, rep)
				})
				var tr []byte
				trc, reg := rep.Tracer()
				if (trc != nil) != e.traced {
					t.Fatalf("report tracer present = %v, registry traced = %v", trc != nil, e.traced)
				}
				if trc != nil {
					tr = artifact(t, filepath.Join(dir, "trace.json"), func(path string) error {
						return bench.WriteTrace(path, trc, reg)
					})
				}
				if i == 0 {
					first = [2][]byte{js, tr}
					continue
				}
				if !bytes.Equal(js, first[0]) {
					t.Error("same-seed replay wrote different JSON bytes")
				}
				if !bytes.Equal(tr, first[1]) {
					t.Error("same-seed replay wrote different trace bytes")
				}
			}
		})
	}
}

// artifact writes one artifact through write and reads it back.
func artifact(t *testing.T, path string, write func(string) error) []byte {
	t.Helper()
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty", filepath.Base(path))
	}
	return data
}

// TestTraceRefusedWithoutTracer: -trace on an experiment that records no
// trace must fail with usage status 2, name the traced experiments, and
// write nothing — never exit 0 with the flag silently ignored.
func TestTraceRefusedWithoutTracer(t *testing.T) {
	traced := strings.Join(expNames(tracedExp), ", ")
	if traced != "faultstudy, failover, overload" {
		t.Fatalf("traced experiments = %q", traced)
	}
	for _, name := range expNames(func(e experiment) bool { return !e.traced }) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			var stdout, stderr bytes.Buffer
			if code := cli([]string{"-exp", name, "-quick", "-trace", path}, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), traced) {
				t.Errorf("stderr %q does not name the traced experiments", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("experiment ran despite the refusal:\n%s", stdout.String())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("trace file written (stat err %v)", err)
			}
		})
	}
}

// TestArtifactsNeedOneExperiment: -json and -trace name one file, so they
// refuse a multi-experiment selection instead of overwriting it.
func TestArtifactsNeedOneExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, args := range [][]string{
		{"-exp", "fig5,fig6", "-quick", "-json", path},
		{"-exp", "faultstudy,failover", "-quick", "-trace", path},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v: artifact written", args)
		}
	}
}

// TestJSONAndTraceWritten: one traced experiment through the CLI writes
// both artifacts and exits 0.
func TestJSONAndTraceWritten(t *testing.T) {
	dir := t.TempDir()
	js, tr := filepath.Join(dir, "out.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-exp", "failover", "-quick", "-json", js, "-trace", tr}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	for _, path := range []string{js, tr} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (err %v)", filepath.Base(path), err)
		}
	}
	if !strings.Contains(stdout.String(), "-- failover completed in") {
		t.Errorf("stdout lacks the completion line:\n%s", stdout.String())
	}
}
