// Command perfbench is the repository's benchmark: it runs one workload
// against the program built from this checkout, checks every result
// against the sim.Run oracle, and prints the workload's metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 they are its per-layer ones, from a separate traced run
// that also prints the per-layer ledger and writes its spans to
// <workdir>/spans. Run it through run.sh, which builds both binaries.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// options are one invocation's settings.
type options struct {
	shape   shape
	seed    int64
	seconds time.Duration
	traced  bool
	daemon  string // consumelocald binary
	self    string // this binary, for the replay child
	dir     string // scratch directory of this run
	spans   string // where the traced run writes its spans
}

// metric is one reported figure. N is the sample count behind a
// distribution statistic (0 when the value is not one).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// report is what a workload run hands back.
type report struct {
	Attempted, Failed int
	// Problems lists correctness failures; any entry fails the run.
	Problems []string
	// Metrics holds every end-to-end and per-layer figure by name.
	Metrics map[string]metric
	// Extras are printed for the reader but are not part of the JSON
	// result: figures defined for only some workloads, or below the
	// sample floor a gated percentile needs.
	Extras []metric
	// Ledger is the traced run's per-layer table.
	Ledger *ledger
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string, n int, note string) {
	r.Metrics[name] = metric{Name: name, Value: value, Unit: unit, N: n, Note: note}
}

func (r *report) extra(name string, value float64, unit string, n int, note string) {
	r.Extras = append(r.Extras, metric{Name: name, Value: value, Unit: unit, N: n, Note: note})
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setPeakRSS records the program's memory: the median over tenths of
// the run of the peak resident set in each tenth, with the process's
// lifetime high-water mark printed beside it.
func (r *report) setPeakRSS(rss, hwm float64) error {
	if !(rss > 0) {
		return fmt.Errorf("peak_rss_mb: no RSS sample")
	}
	r.set("peak_rss_mb", rss, "MiB", segmentsPerRun, "median over tenths of the run of the peak VmRSS")
	r.extra("rss_hwm_mb", hwm, "MiB", 0, "lifetime high-water mark")
	return nil
}

// extraSegmented records, for the printout, a percentile taken within
// each segment of the run (a replay, a tenth of the run) as the median
// over segments.
func (r *report) extraSegmented(name string, segs [][]float64, q float64, unit, what string) {
	v, err := segmentQuantile(segs, q)
	if err != nil {
		r.extra(name, math.NaN(), unit, v.Samples, err.Error())
		return
	}
	r.extra(name, v.Value, unit, v.Samples, fmt.Sprintf("median over %d %s", v.Segments, what))
}

// extraQuantile records an ungated percentile for the printout. A
// percentile the samples cannot support is printed with its count and
// the reason instead of a value.
func (r *report) extraQuantile(name string, samples []float64, q float64, unit, note string) {
	v, err := pick(append([]float64(nil), samples...), q)
	if err != nil {
		r.extra(name, math.NaN(), unit, v.N, err.Error())
		return
	}
	r.extra(name, v.Value, unit, v.N, note)
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// to emit, with which units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement length in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	daemon := fs.String("daemon", "", "consumelocald binary under test")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory (inside the checkout)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to emit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(*workload, *seed, *seconds, *traced, *daemon, *workdir, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run whose results disagreed with the oracle; its
// JSON line has already been printed.
var errIncorrect = errors.New("results disagree with the oracle")

func run(workload string, seed int64, seconds, traced int, daemon, workdir, specPath string) error {
	sh, err := shapeByName(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	if sh.Conns > nproc {
		return fmt.Errorf("%s needs %d connections but nproc is %d: load may not exceed nproc", sh.Name, sh.Conns, nproc)
	}
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if sh.Kind != "replay" {
		if daemon == "" {
			return fmt.Errorf("%s needs -daemon (the consumelocald binary)", sh.Name)
		}
		if daemon, err = filepath.Abs(daemon); err != nil {
			return err
		}
	}
	if workdir, err = filepath.Abs(workdir); err != nil {
		return err
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-s%d-%d", sh.Name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opt := options{
		shape: sh, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traced == 1, daemon: daemon, self: self, dir: dir,
		spans: filepath.Join(workdir, "spans", fmt.Sprintf("%s-s%d.jsonl", sh.Name, seed)),
	}

	fmt.Printf("workload   %s (%s)\n", sh.Name, sh.describe())
	fmt.Printf("why        %s\n", sh.Why)
	fmt.Printf("run        seed %d, %d s, traced %v, GOMAXPROCS %d, nproc %d, connections %d, %s\n",
		seed, seconds, opt.traced, runtime.GOMAXPROCS(0), nproc, sh.Conns, runtime.Version())

	var rep *report
	switch sh.Kind {
	case "replay":
		rep, err = runReplay(opt)
	case "live":
		rep, err = runLive(opt)
	default:
		rep, err = runCatchup(opt)
	}
	if err != nil {
		// A run that failed to measure still reports what it found wrong.
		if rep != nil {
			for _, p := range rep.Problems {
				fmt.Println("INCORRECT ", p)
			}
		}
		return err
	}
	want := sp.EndToEnd
	if opt.traced {
		want = sp.PerLayer
		if rep.Ledger != nil {
			rep.Ledger.print(os.Stdout)
		}
	}
	printReport(rep, want)
	if err := emit(rep, want); err != nil {
		return err
	}
	if len(rep.Problems) > 0 {
		return errIncorrect
	}
	return nil
}

// printReport prints every metric by name and unit with its sample
// count, then the extras and any correctness problems.
func printReport(rep *report, want []specMetric) {
	fmt.Println("metrics")
	for _, m := range want {
		if got, ok := rep.Metrics[m.Name]; ok {
			printMetric(got)
		}
	}
	if len(rep.Extras) > 0 {
		fmt.Println("extras (printed only)")
		for _, m := range rep.Extras {
			printMetric(m)
		}
	}
	fmt.Printf("requests   attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	if len(rep.Problems) == 0 {
		fmt.Println("correct    every result equals the sim.Run oracle")
	}
	for _, p := range rep.Problems {
		fmt.Println("INCORRECT ", p)
	}
}

func printMetric(m metric) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf("n=%d", m.N)
	}
	fmt.Printf("  %-36s %14.6g %-14s %-9s %s\n", m.Name, m.Value, m.Unit, n, m.Note)
}

// emit prints the JSON result line with exactly the metrics listed.
func emit(rep *report, want []specMetric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct: len(rep.Problems) == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]value, len(want)),
	}
	var missing []string
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
			continue
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s but BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
		out.Metrics[m.Name] = value{Value: got.Value, Unit: got.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("run produced no value for %s", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return fmt.Errorf("run attempted no work")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
