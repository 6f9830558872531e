package main

import (
	"fmt"
	"strings"

	"consumelocal/internal/trace"
)

// shape fixes everything about a workload except the seed. The values
// are part of the benchmark's definition: changing one is a benchmark
// change, never part of a change that claims a gain.
type shape struct {
	Name string
	// Kind selects how the workload runs: replay (library, child process), live
	// (daemon, open loop) or catchup (daemon, closed loop).
	Kind string
	// Scale and Days size the generated trace: the catch-up generator
	// (trace.DefaultGeneratorConfig) for replay and catchup, the
	// evening-TV live schedule (trace.DefaultLiveConfig, one day) for
	// live.
	Scale float64
	Days  int
	// WindowSec is the reporting window.
	WindowSec int64
	// Batch is the sessions per ingest POST.
	Batch int
	// Rate is the open-loop offered load in sessions per second while a
	// broadcast is being pushed (live only).
	Rate float64
	// JobGapSec is the scheduled pause between two live broadcasts, long
	// enough for the previous job's final result to land.
	JobGapSec float64
	// Conns is the number of client connections the workload opens.
	Conns int
	// SetupRuns is how many times one run sets the program up; setup_s
	// is their median.
	SetupRuns int
	// Why records the reason the workload exists.
	Why string
}

// shapes are the benchmark's workloads.
var shapes = []shape{
	{
		Name: "replay-vod", Kind: "replay",
		Scale: 0.01, Days: 2, WindowSec: 600,
		SetupRuns: 15,
		Why: "Offline analyst path: catch-up trace (scale 0.01, 2 days, swarms to ~200 peers) replayed by Replay(CSVSource) " +
			"in a child process; matching and settling dominate, no HTTP or journal.",
	},
	{
		Name: "ingest-live", Kind: "live",
		Scale: 0.005, Days: 1, WindowSec: 300, Batch: 25, Rate: 2500, JobGapSec: 0.5,
		Conns: 2, SetupRuns: 11,
		Why: "Durable daemon fed the live evening trace (scale 0.005) open loop at 2500 sessions/s in 25-session batches " +
			"while a follower reads snapshots: huge swarms settle behind HTTP and journal.",
	},
	// Not listed in BENCHMARK.json: on a shared 2-vCPU machine this
	// closed loop saturates both CPUs with the load generator, and its
	// wall-clock figures move by a third between runs. Run it by hand.
	{
		Name: "ingest-catchup", Kind: "catchup",
		Scale: 0.005, Days: 7, WindowSec: 3600, Batch: 200,
		Conns: 2, SetupRuns: 11,
		Why: "Durable daemon, 2 closed-loop producers pushing sparse catch-up traces (scale 0.005, 7 days) in 200-session " +
			"batches: bound by parse, journal render and fsync; matching barely shows.",
	},
}

func shapeByName(name string) (shape, error) {
	var names []string
	for _, s := range shapes {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return shape{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// describe renders the shape for the run header.
func (s shape) describe() string {
	switch s.Kind {
	case "replay":
		return fmt.Sprintf("catch-up trace scale %g x %d days, window %ds, library defaults (workers = GOMAXPROCS)",
			s.Scale, s.Days, s.WindowSec)
	case "live":
		return fmt.Sprintf("live evening trace scale %g, window %ds, %d-session batches, open loop at %g sessions/s, %gs between broadcasts, %d connections",
			s.Scale, s.WindowSec, s.Batch, s.Rate, s.JobGapSec, s.Conns)
	default:
		return fmt.Sprintf("catch-up trace scale %g x %d days, window %ds, %d-session batches, closed loop, %d connections",
			s.Scale, s.Days, s.WindowSec, s.Batch, s.Conns)
	}
}

// generate builds the workload's trace from the seed.
func (s shape) generate(seed int64) (*trace.Trace, error) {
	if s.Kind == "live" {
		cfg := trace.DefaultLiveConfig(s.Scale)
		cfg.Seed = seed
		return trace.GenerateLive(cfg)
	}
	cfg := trace.DefaultGeneratorConfig(s.Scale)
	cfg.Days = s.Days
	cfg.Seed = seed
	return trace.Generate(cfg)
}
