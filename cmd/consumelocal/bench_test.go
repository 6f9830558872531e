package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchWritesReport runs the bench harness at a tiny scale with a
// two-entry worker sweep and checks the JSON report: one measurement
// per engine × worker count, each carrying its workers field and
// positive throughput, so the perf trajectory file can never silently
// go stale in shape.
func TestBenchWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness timing run")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_replay.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := run([]string{"bench", "-scale", "0.0005", "-days", "2", "-workers", "1,2",
		"-cpuprofile", cpuPath, "-memprofile", memPath, "-o", path}, &out)
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, out.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Trace.Sessions <= 0 {
		t.Fatalf("report records %d sessions", report.Trace.Sessions)
	}
	type entry struct {
		engine  string
		workers int
	}
	want := []entry{
		{"batch", 1},
		{"streaming", 1}, {"streaming", 2},
	}
	if len(report.Engines) != len(want) {
		t.Fatalf("report has %d entries, want %d", len(report.Engines), len(want))
	}
	for i, eng := range report.Engines {
		if eng.Engine != want[i].engine || eng.Workers != want[i].workers {
			t.Fatalf("entry %d = %q w=%d, want %q w=%d",
				i, eng.Engine, eng.Workers, want[i].engine, want[i].workers)
		}
		if eng.SessionsPerSec <= 0 || eng.Runs <= 0 || eng.NsPerOp <= 0 {
			t.Fatalf("entry %q w=%d has empty measurements: %+v", eng.Engine, eng.Workers, eng)
		}
	}
	if !strings.Contains(out.String(), "sessions/s") {
		t.Fatalf("bench output missing summary table:\n%s", out.String())
	}
	for _, p := range []string{cpuPath, memPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestBenchRejectsBadWorkerList(t *testing.T) {
	for _, bad := range []string{"0", "-1", "a", "1,,x", ","} {
		var out bytes.Buffer
		if err := run([]string{"bench", "-workers", bad}, &out); err == nil {
			t.Fatalf("expected an error for -workers %q", bad)
		}
	}
}

func TestBenchRejectsExtraArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"bench", "extra"}, &out); err == nil {
		t.Fatal("expected an error for stray arguments")
	}
}
