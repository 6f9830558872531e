package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"consumelocal"
)

// runBench is the perf-trajectory harness: it replays one shared
// synthetic workload through every engine of the unified Replay API
// under testing.Benchmark and writes the headline numbers — sessions/s,
// ns/op, B/op, allocs/op per engine and worker count — as JSON, so each
// PR can record its before/after next to the code (see docs/PERF.md).
//
// The streaming engine is measured once per entry of the -workers list
// (the multi-core scaling matrix); the batch engine is single-threaded
// and measured once.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("consumelocal bench", flag.ContinueOnError)
	fs.SetOutput(out)
	scale := fs.Float64("scale", 0.002, "trace scale relative to the paper's dataset")
	days := fs.Int("days", 14, "trace horizon in days")
	seed := fs.Int64("seed", 1, "trace generator seed")
	workers := fs.String("workers", "4", "comma-separated worker counts for the streaming engine (e.g. 1,2,4,8)")
	output := fs.String("o", "", "write the JSON report to this file (default: stdout only)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the benchmark runs to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile taken after the benchmark runs to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected arguments %q", fs.Args())
	}
	workerCounts, err := parseWorkerList(*workers)
	if err != nil {
		return err
	}

	traceCfg := consumelocal.DefaultTraceConfig(*scale)
	traceCfg.Days = *days
	traceCfg.Seed = *seed
	tr, err := consumelocal.GenerateTrace(traceCfg)
	if err != nil {
		return err
	}
	simCfg := consumelocal.DefaultSimConfig(1.0)
	simCfg.TrackUsers = false

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("bench: start cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	report.Trace.Scale = *scale
	report.Trace.Days = *days
	report.Trace.Seed = *seed
	report.Trace.Sessions = len(tr.Sessions)

	type benchCase struct {
		mode    consumelocal.EngineMode
		workers int
	}
	var cases []benchCase
	// The batch engine is serial; worker counts apply to streaming.
	cases = append(cases, benchCase{consumelocal.EngineBatch, 1})
	for _, w := range workerCounts {
		cases = append(cases, benchCase{consumelocal.EngineStreaming, w})
	}

	fmt.Fprintf(out, "bench: %d sessions over %d days (scale %g, seed %d)\n",
		len(tr.Sessions), *days, *scale, *seed)
	for _, bc := range cases {
		bc := bc
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job, err := consumelocal.Replay(context.Background(),
					consumelocal.TraceSource(tr),
					consumelocal.WithSimConfig(simCfg),
					consumelocal.WithEngine(bc.mode),
					consumelocal.WithWindow(24*3600),
					consumelocal.WithWorkers(bc.workers),
				)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := job.Result(); err != nil {
					b.Fatal(err)
				}
			}
		})
		eb := engineBench{
			Engine:         bc.mode.String(),
			Workers:        bc.workers,
			Runs:           res.N,
			NsPerOp:        res.NsPerOp(),
			BytesPerOp:     res.AllocedBytesPerOp(),
			AllocsPerOp:    res.AllocsPerOp(),
			SessionsPerSec: float64(len(tr.Sessions)*res.N) / res.T.Seconds(),
		}
		report.Engines = append(report.Engines, eb)
		fmt.Fprintf(out, "%-10s w=%-2d %12.0f sessions/s %14d ns/op %12d B/op %9d allocs/op\n",
			eb.Engine, eb.Workers, eb.SessionsPerSec, eb.NsPerOp, eb.BytesPerOp, eb.AllocsPerOp)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		runtime.GC() // materialise the final live set before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("bench: write heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}

	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			f.Close()
			return fmt.Errorf("bench: write report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		fmt.Fprintf(out, "bench: report written to %s\n", *output)
	}
	return nil
}

// parseWorkerList parses the -workers flag: a comma-separated list of
// positive worker counts, e.g. "1,2,4,8".
func parseWorkerList(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bench: invalid -workers entry %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		counts = append(counts, w)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("bench: -workers needs at least one positive worker count")
	}
	return counts, nil
}

// benchReport is the BENCH_replay.json schema.
type benchReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Trace       struct {
		Scale    float64 `json:"scale"`
		Days     int     `json:"days"`
		Seed     int64   `json:"seed"`
		Sessions int     `json:"sessions"`
	} `json:"trace"`
	Engines []engineBench `json:"engines"`
}

// engineBench is one engine × worker-count measurement.
type engineBench struct {
	Engine         string  `json:"engine"`
	Workers        int     `json:"workers"`
	Runs           int     `json:"runs"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	NsPerOp        int64   `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
}
