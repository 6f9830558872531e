package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"consumelocal"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// The replay-vod workload runs the library in a child process — this
// binary re-executed with "child" — so the replay's RSS, GC and CPU are
// its own. The child reports one JSON line per replay on stdout.

// replayLine is one line of the child's report.
type replayLine struct {
	Kind    string `json:"kind"` // replay | done
	Phase   string `json:"phase,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Per replay: wall time from the Replay call to Result, sessions
	// read, the lag of every window holding sessions (from the source
	// yielding the session that closes the window to the snapshot
	// reaching the consumer) and the time from source EOF to Result.
	WallS    float64   `json:"wall_s,omitempty"`
	CPUS     float64   `json:"cpu_s,omitempty"`
	Sessions int64     `json:"sessions,omitempty"`
	LagsMs   []float64 `json:"lags_ms,omitempty"`
	ResultMs float64   `json:"result_ms,omitempty"`
	// done (traced child only): stage counters and matching figures of
	// the traced replays.
	Stage *stageStats `json:"stage,omitempty"`
	Match *matchStats `json:"match,omitempty"`
	Spans int         `json:"spans,omitempty"`
}

// stageStats are the library's WithInstrumentation stage counters.
type stageStats struct {
	SourceReadS float64 `json:"source_read_s"`
	Sessions    float64 `json:"sessions"`
	SettleS     float64 `json:"settle_s"`
	SinkEmitS   float64 `json:"sink_emit_s"`
	Windows     float64 `json:"windows"`
	WallS       float64 `json:"wall_s"`
	Replays     int     `json:"replays"`
	Workers     int     `json:"workers"`
	CPUS        float64 `json:"cpu_s"`
}

func runReplay(opt options) (*report, error) {
	sh := opt.shape
	tr, err := sh.generate(opt.seed)
	if err != nil {
		return nil, err
	}
	csvPath := filepath.Join(opt.dir, "trace.csv")
	if err := writeTraceCSV(tr, csvPath); err != nil {
		return nil, err
	}
	fmt.Printf("input      %d sessions, %d windows of %ds\n", len(tr.Sessions), tr.HorizonSec/sh.WindowSec, sh.WindowSec)
	oracle, err := runOracle(tr.Meta(), tr.Sessions)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	sessions := len(tr.Sessions)
	if !opt.traced {
		tr = nil // the child reads the CSV; the traced run keeps it for the in-process layers
	}
	runtime.GC()

	rep := newReport()
	var setups []float64
	for i := 0; i < sh.SetupRuns; i++ {
		s, err := replaySetup(opt, csvPath)
		if err != nil {
			return nil, fmt.Errorf("setup run %d: %w", i, err)
		}
		setups = append(setups, s)
	}
	rep.set("setup_s", median(setups), "s", len(setups), "median exec -> Replay returned")

	resultPath := filepath.Join(opt.dir, "result.gob")
	args := []string{"child", "replay", "-csv", csvPath, "-window", fmt.Sprint(sh.WindowSec),
		"-seconds", opt.seconds.String(), "-result", resultPath}
	if opt.traced {
		args = append(args, "-traced", "-spans", opt.spans)
	}
	cmd := exec.Command(opt.self, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The child warms up once, then replays for the run length.
	rss := sampleRSS(cmd.Process.Pid, opt.seconds+opt.seconds/segmentsPerRun)
	var lines []replayLine
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var l replayLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			cmd.Process.Kill()
			rss.finish()
			cmd.Wait()
			return nil, fmt.Errorf("child output: %w", err)
		}
		lines = append(lines, l)
	}
	rssMiB := rss.finish()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("replay child: %w", err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, fmt.Errorf("replay child: no rusage")
	}

	// Correctness: the child checked every replay against its first;
	// the first must equal the oracle.
	got, err := readResult(resultPath)
	if err != nil {
		return nil, err
	}
	if err := compareResults(got, oracle); err != nil {
		rep.problem("replay result differs from the oracle: %v", err)
	}

	var (
		rates, cpus, lags, results []float64
		lagSegs                    [][]float64
		single                     float64
		traced                     []replayLine
		done                       *replayLine
	)
	for i := range lines {
		l := &lines[i]
		switch {
		case l.Kind == "done":
			done = l
		case l.Kind != "replay":
		case l.Phase == "untraced":
			rep.Attempted++
			if l.Sessions != int64(sessions) {
				rep.problem("replay read %d sessions, trace has %d", l.Sessions, sessions)
			}
			rates = append(rates, float64(l.Sessions)/l.WallS)
			cpus = append(cpus, l.CPUS/float64(l.Sessions)*1e6)
			lags = append(lags, l.LagsMs...)
			lagSegs = append(lagSegs, l.LagsMs)
			results = append(results, l.ResultMs)
		case l.Phase == "traced":
			traced = append(traced, *l)
		case l.Phase == "single":
			single = float64(l.Sessions) / l.WallS
		}
	}
	if done == nil {
		return nil, fmt.Errorf("replay child ended without its summary")
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no timed replay completed in %s", opt.seconds)
	}
	rate := median(append([]float64(nil), rates...))
	rep.set("sessions_per_s", rate, "sessions/s", len(rates), "median over replays: trace sessions / (Replay -> Result)")
	const what = "replays, window lag: closing session read -> snapshot received"
	rep.extraSegmented("latency_ms_p50", lagSegs, 0.5, "ms", what)
	rep.extraSegmented("latency_ms_p75", lagSegs, 0.75, "ms", what)
	rep.extraQuantile("window_lag_ms_p90", lags, 0.9, "ms", "whole run")
	rep.extraQuantile("window_lag_ms_p99", lags, 0.99, "ms", "whole run")
	rep.set("cpu_us_per_session", median(cpus), "us/session", len(cpus), "median over replays: child CPU / sessions")
	if err := rep.setPeakRSS(rssMiB, float64(ru.Maxrss)/1024); err != nil {
		return nil, err
	}
	rep.extraQuantile("final_result_ms_p50", results, 0.5, "ms", "source EOF -> Result")

	if opt.traced {
		if err := replayLayers(opt, rep, done, traced, rates, single, sessions, tr); err != nil {
			return nil, err
		}
		fmt.Printf("spans      %d written to %s\n", done.Spans, opt.spans)
	}
	return rep, nil
}

func writeTraceCSV(tr *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := tr.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResult(path string) (*sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var res sim.Result
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&res); err != nil {
		return nil, fmt.Errorf("decode replay result: %w", err)
	}
	return &res, nil
}

// replaySetup times one child from exec until its Replay call returned.
func replaySetup(opt options, csvPath string) (float64, error) {
	cmd := exec.Command(opt.self, "child", "setup", "-csv", csvPath, "-window", fmt.Sprint(opt.shape.WindowSec))
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	took := time.Since(t0).Seconds()
	io.Copy(io.Discard, out)
	if werr := cmd.Wait(); werr != nil {
		return 0, werr
	}
	if err != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup child said %q: %v", line, err)
	}
	return took, nil
}

// childMain is the replay child: "child setup" starts one replay and
// reports readiness; "child replay" replays the trace repeatedly for
// -seconds and reports each replay.
func childMain(args []string) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "child: need a mode")
		return 2
	}
	mode := args[0]
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	csvPath := fs.String("csv", "", "trace CSV")
	window := fs.Int64("window", 3600, "reporting window")
	seconds := fs.Duration("seconds", 10*time.Second, "measurement length")
	resultPath := fs.String("result", "", "where to write the first result")
	traced := fs.Bool("traced", false, "also run the traced and single-worker phases")
	spansPath := fs.String("spans", "", "where the traced phase writes its spans")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var err error
	switch mode {
	case "setup":
		err = childSetup(*csvPath, *window)
	case "replay":
		err = childReplay(*csvPath, *window, *seconds, *resultPath, *traced, *spansPath)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func childSetup(csvPath string, window int64) error {
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := consumelocal.CSVSource(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job, err := consumelocal.Replay(ctx, src, consumelocal.WithWindow(window))
	if err != nil {
		return err
	}
	fmt.Println("ready")
	os.Stdout.Sync()
	job.Cancel()
	job.Result()
	return nil
}

// windowSource wraps the CSV source to timestamp, for every reporting
// window, the moment the engine reads the session that closes it, and
// to count the sessions each window holds. Only boundary crossings read
// the clock, so the untimed path stays one comparison per session.
type windowSource struct {
	consumelocal.Source
	window   int64
	boundary int64
	idx      int
	closedAt []time.Time
	sessions []int64
	total    int64
	eofAt    time.Time
}

func newWindowSource(src consumelocal.Source, window int64) *windowSource {
	n := int(src.Meta().HorizonSec/window) + 1
	return &windowSource{
		Source: src, window: window, boundary: window,
		closedAt: make([]time.Time, n), sessions: make([]int64, n),
	}
}

func (w *windowSource) Next() (trace.Session, error) {
	s, err := w.Source.Next()
	if err != nil {
		if err == io.EOF {
			w.eofAt = time.Now()
		}
		return s, err
	}
	if s.StartSec >= w.boundary {
		now := time.Now()
		for s.StartSec >= w.boundary && w.idx < len(w.closedAt) {
			w.closedAt[w.idx] = now
			w.idx++
			w.boundary += w.window
		}
	}
	if k := s.StartSec / w.window; k < int64(len(w.sessions)) {
		w.sessions[k]++
	}
	w.total++
	return s, nil
}

// oneReplay is one timed replay in the child.
type oneReplay struct {
	line   replayLine
	result *sim.Result
}

func replayOnce(csvPath string, window int64, workers int, extra []consumelocal.Option, rec *spanRecorder) (*oneReplay, error) {
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	csv, err := consumelocal.CSVSource(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	src := newWindowSource(csv, window)
	opts := append([]consumelocal.Option{consumelocal.WithWindow(window)}, extra...)
	if workers > 0 {
		opts = append(opts, consumelocal.WithWorkers(workers))
	}
	recv := make([]time.Time, len(src.closedAt))
	cpu0 := cpuSelf()
	t0 := time.Now()
	job, err := consumelocal.Replay(context.Background(), src, opts...)
	if err != nil {
		return nil, err
	}
	for snap := range job.Snapshots() {
		if !snap.Final && snap.Index < len(recv) {
			recv[snap.Index] = time.Now()
		}
	}
	res, err := job.Result()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	r := &oneReplay{result: res, line: replayLine{
		Kind: "replay", WallS: end.Sub(t0).Seconds(), CPUS: cpuSelf() - cpu0, Sessions: src.total,
		ResultMs: float64(end.Sub(src.eofAt).Microseconds()) / 1e3,
	}}
	req := rec.newID()
	root := rec.add("consumelocal.Replay", req, 0, t0, end)
	for k := range recv {
		if src.sessions[k] == 0 || recv[k].IsZero() || src.closedAt[k].IsZero() {
			continue
		}
		r.line.LagsMs = append(r.line.LagsMs, float64(recv[k].Sub(src.closedAt[k]).Microseconds())/1e3)
		rec.add("engine.window", req, root, src.closedAt[k], recv[k])
	}
	rec.add("consumelocal.result", req, root, src.eofAt, end)
	return r, nil
}

func childReplay(csvPath string, window int64, seconds time.Duration, resultPath string, traced bool, spansPath string) error {
	enc := json.NewEncoder(os.Stdout)
	// One warm-up replay fills the page cache and grows the heap; it is
	// not reported.
	first, err := replayOnce(csvPath, window, 0, nil, nil)
	if err != nil {
		return err
	}
	if err := writeResult(resultPath, first.result); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	loop := func(phase string, extra []consumelocal.Option, rec *spanRecorder) (int, time.Duration, error) {
		start := time.Now()
		n := 0
		var last time.Duration
		for n == 0 || time.Since(start)+last <= seconds {
			t0 := time.Now()
			r, err := replayOnce(csvPath, window, 0, extra, rec)
			if err != nil {
				return n, 0, err
			}
			last = time.Since(t0)
			if err := compareResults(r.result, first.result); err != nil {
				return n, 0, fmt.Errorf("%s replay %d differs from the first replay: %w", phase, n, err)
			}
			r.line.Phase, r.line.Workers = phase, workers
			if err := enc.Encode(r.line); err != nil {
				return n, 0, err
			}
			n++
		}
		return n, time.Since(start), nil
	}
	if _, _, err := loop("untraced", nil, nil); err != nil {
		return err
	}
	done := replayLine{Kind: "done"}
	if traced {
		reg := consumelocal.NewMetrics()
		stage := obs.NewReplayMetrics(reg)
		pol := newTimedPolicy()
		cfg := sim.DefaultConfig(1.0)
		cfg.Policy = pol
		rec := newSpanRecorder()
		cpu0 := cpuSelf()
		n, wall, err := loop("traced", []consumelocal.Option{
			consumelocal.WithReplayMetrics(stage), consumelocal.WithSimConfig(cfg),
		}, rec)
		if err != nil {
			return err
		}
		done.Stage = &stageStats{
			SourceReadS: stage.SourceReadSeconds.Value(), Sessions: stage.SourceSessions.Value(),
			SettleS: stage.SettleSeconds.Value(), SinkEmitS: stage.SinkEmitSeconds.Value(),
			Windows: stage.WindowsSettled.Value(), WallS: wall.Seconds(), Replays: n, Workers: workers,
			CPUS: cpuSelf() - cpu0,
		}
		ms := pol.stats()
		done.Match = &ms
		done.Spans = rec.count()
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return err
		}
		if err := rec.writeFile(spansPath); err != nil {
			return err
		}
		// The single-worker replay is the denominator of worker scaling.
		r, err := replayOnce(csvPath, window, 1, nil, nil)
		if err != nil {
			return err
		}
		if err := compareResults(r.result, first.result); err != nil {
			return fmt.Errorf("single-worker replay differs from the first replay: %w", err)
		}
		r.line.Phase, r.line.Workers = "single", 1
		if err := enc.Encode(r.line); err != nil {
			return err
		}
	}
	return enc.Encode(done)
}

func writeResult(path string, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := gob.NewEncoder(w).Encode(res); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuSelf is this process's user+system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
