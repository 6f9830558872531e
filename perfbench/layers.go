package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"consumelocal"
	"consumelocal/internal/joblog"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// ledgerRow is one layer's line of the traced run's ledger.
type ledgerRow struct {
	Layer string
	What  string
	Count float64 // operations
	BusyS float64 // time the layer spent working
	WaitS float64 // time work waited on it (backpressure, queueing)
	// Summed rows are disjoint and add up to the explained share;
	// others overlap a summed row and are shown for reference.
	Summed bool
}

// ledger reconciles per-layer busy time against the end-to-end busy
// time of one workload.
type ledger struct {
	Workload string
	// E2EBusyS is the end-to-end busy time the rows are held against,
	// described by E2EWhat.
	E2EBusyS float64
	E2EWhat  string
	Rows     []ledgerRow
	// PeersPerCall is the mean active set per matching call: the
	// shared-work property matching gains depend on.
	PeersPerCall float64
}

// share is a row's busy and wait time as a fraction of the end-to-end
// busy time.
func (l *ledger) share(r ledgerRow) float64 {
	if l.E2EBusyS <= 0 {
		return 0
	}
	return (r.BusyS + r.WaitS) / l.E2EBusyS
}

// explained is the fraction of the end-to-end busy time the summed rows
// account for, by their busy and wait time.
func (l *ledger) explained() float64 {
	sum := 0.0
	for _, r := range l.Rows {
		if r.Summed {
			sum += r.BusyS + r.WaitS
		}
	}
	if l.E2EBusyS <= 0 {
		return 0
	}
	return sum / l.E2EBusyS
}

// largest returns the summed row with the most busy and wait time.
func (l *ledger) largest() ledgerRow {
	var best ledgerRow
	for _, r := range l.Rows {
		if r.Summed && r.BusyS+r.WaitS > best.BusyS+best.WaitS {
			best = r
		}
	}
	return best
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger     %s: end-to-end busy %.4gs (%s)\n", l.Workload, l.E2EBusyS, l.E2EWhat)
	fmt.Fprintf(w, "  %-14s %-34s %12s %10s %10s %12s %8s\n", "layer", "what", "count", "busy s", "wait s", "ns/op", "share")
	for _, r := range l.Rows {
		nsOp := 0.0
		if r.Count > 0 {
			nsOp = r.BusyS / r.Count * 1e9
		}
		mark := " "
		if !r.Summed {
			mark = "~"
		}
		fmt.Fprintf(w, "  %-14s %-34s %12.0f %10.4g %10.4g %12.4g %7.1f%%%s\n",
			r.Layer, r.What, r.Count, r.BusyS, r.WaitS, nsOp, 100*l.share(r), mark)
	}
	fmt.Fprintf(w, "  explained  %.1f%% of end-to-end busy time by the summed rows (~ rows overlap a summed row)\n", 100*l.explained())
	if top := l.largest(); top.Layer != "" {
		fmt.Fprintf(w, "  largest    %s (%s)\n", top.Layer, top.What)
	}
	fmt.Fprintf(w, "  matching.peers_per_call_mean %.4g\n", l.PeersPerCall)
}

// measureParse times trace.ReadSessionsCSV over batch bodies, the
// daemon's ingest parse.
func measureParse(bodies [][]byte) (int, float64, error) {
	n := 0
	t0 := time.Now()
	for _, b := range bodies {
		ss, err := trace.ReadSessionsCSV(bytes.NewReader(b))
		if err != nil {
			return 0, 0, err
		}
		n += len(ss)
	}
	return n, time.Since(t0).Seconds(), nil
}

// journalCSVChunk mirrors the daemon's journal record chunk size: a
// batch's accepted rows are rendered into records of about this many
// bytes.
const journalCSVChunk = 256 << 10

// journalRecords renders one accepted batch the way the daemon journals
// it: trace.AppendSessionCSV into chunked batch records, the watermark
// on the last.
func journalRecords(job int, sessions []trace.Session, watermark int64) []joblog.Record {
	var recs []joblog.Record
	csv := make([]byte, 0, min(len(sessions)*32, journalCSVChunk+64))
	count := int64(0)
	flush := func() {
		recs = append(recs, joblog.Record{Type: joblog.TypeBatch, Job: job, Sessions: count, CSV: string(csv)})
		csv, count = csv[:0], 0
	}
	for _, s := range sessions {
		csv = trace.AppendSessionCSV(csv, s)
		count++
		if len(csv) >= journalCSVChunk {
			flush()
		}
	}
	if count > 0 {
		flush()
	}
	recs[len(recs)-1].WatermarkSec = watermark
	return recs
}

// measureRender times the journal re-render of accepted batches.
func measureRender(batches []batch) (int, float64) {
	n := 0
	t0 := time.Now()
	for _, b := range batches {
		journalRecords(1, b.sessions, b.watermark)
		n += len(b.sessions)
	}
	return n, time.Since(t0).Seconds()
}

// nopSink discards a tracker's output.
type nopSink struct{ intervals int64 }

func (s *nopSink) Emit(swarm.Interval) { s.intervals++ }
func (s *nopSink) Closed(int)          {}

// measureTracker feeds the sessions through one swarm.Tracker per swarm
// key, the way the engine's workers do, with a sink that discards the
// intervals. Each session is two events (its open and its close).
func measureTracker(sessions []trace.Session) (int64, float64) {
	opts := swarm.DefaultOptions()
	trackers := make(map[swarm.Key]*swarm.Tracker)
	members := make(map[swarm.Key]int)
	sink := &nopSink{}
	t0 := time.Now()
	for _, s := range sessions {
		k := swarm.KeyOf(s, opts)
		tr := trackers[k]
		if tr == nil {
			tr = swarm.NewTracker()
			trackers[k] = tr
		}
		tr.Advance(s.StartSec, sink)
		tr.Schedule(s.StartSec, s.EndSec(), members[k])
		members[k]++
	}
	for _, tr := range trackers {
		tr.Finish(sink)
	}
	return 2 * int64(len(sessions)), time.Since(t0).Seconds()
}

// measureMatching runs the oracle simulator over the sessions with the
// timing wrapper as its policy.
func measureMatching(meta trace.Meta, sessions []trace.Session) (matchStats, error) {
	pol := newTimedPolicy()
	cfg := sim.DefaultConfig(1.0)
	cfg.Policy = pol
	if _, err := sim.Run(traceOf(meta, sessions), cfg); err != nil {
		return matchStats{}, err
	}
	return pol.stats(), nil
}

// measureJournal appends the batches' journal records to a fresh
// journal in dir, one AppendBatch (one write, one fsync) per batch as
// the daemon commits them, and returns each append's latency in ms.
func measureJournal(dir string, batches []batch) ([]float64, error) {
	jl, _, err := joblog.Open(dir)
	if err != nil {
		return nil, err
	}
	defer jl.Close()
	var out []float64
	for _, b := range batches {
		recs := journalRecords(1, b.sessions, b.watermark)
		t0 := time.Now()
		if err := jl.AppendBatch(recs); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// replayRate replays the sessions in process on the streaming engine
// with the given worker count and returns sessions per second.
func replayRate(meta trace.Meta, sessions []trace.Session, window int64, workers int) (float64, error) {
	t0 := time.Now()
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(traceOf(meta, sessions)),
		consumelocal.WithWindow(window), consumelocal.WithWorkers(workers))
	if err != nil {
		return 0, err
	}
	if _, err := job.Result(); err != nil {
		return 0, err
	}
	return float64(len(sessions)) / time.Since(t0).Seconds(), nil
}

// nearest is the nearest-rank percentile without the sample floor: the
// per-layer figures are diagnostics, not gated metrics.
func nearest(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// setMatching records the matching layer's figures.
func setMatching(rep *report, m matchStats, scale float64, basis string) {
	rep.set("matching.calls", float64(m.Calls)*scale, "count", 0, basis)
	rep.set("matching.match_s", m.MatchS*scale, "s", 0, basis)
	nsCall := 0.0
	if m.Calls > 0 {
		nsCall = m.MatchS / float64(m.Calls) * 1e9
	}
	rep.set("matching.ns_per_call", nsCall, "ns", 0, basis)
	rep.set("matching.peers_per_call_mean", m.PeersMean, "peers", 0, basis)
	rep.set("matching.peers_per_call_p99", m.PeersP99, "peers", 0, basis)
	rep.set("matching.peer_bit_share", m.PeerBitShare, "ratio", 0, "peer-served bits / demanded bits")
}

// replayLayers fills the per-layer metrics of a traced replay-vod run
// from the child's stage counters and matching wrapper, plus in-process
// measurements of the layers the child cannot time separately.
func replayLayers(opt options, rep *report, done *replayLine, traced []replayLine, rates []float64, single float64, sessions int, tr *trace.Trace) error {
	st, m := done.Stage, done.Match
	if st == nil || m == nil || len(traced) == 0 || single <= 0 {
		return fmt.Errorf("traced replay child reported no traced phase")
	}
	perSession := st.SourceReadS / st.Sessions * 1e9
	rep.set("trace.parse_ns_per_session", perSession, "ns", 0, "Source.Next timing in the child")
	rep.set("trace.parse_s", st.SourceReadS, "s", 0, fmt.Sprintf("%d traced replays", st.Replays))
	nRender, renderS := measureRender(makeBatches(tr.Sessions, 200))
	rep.set("trace.render_ns_per_session", renderS/float64(nRender)*1e9, "ns", 0, "in process over the trace")
	rep.set("engine.settle_s", st.SettleS, "s", 0, "WithInstrumentation settle counter (window marks)")
	rep.set("engine.windows", st.Windows, "count", 0, "")
	rep.set("engine.worker_scaling", median(append([]float64(nil), rates...))/single, "ratio", 0,
		fmt.Sprintf("sessions/s at %d workers / at 1", st.Workers))
	events, trackS := measureTracker(tr.Sessions)
	trackRun := trackS * float64(st.Replays)
	// The settle counter covers window marks only, and most intervals
	// settle (and match) as sessions arrive, so settle_s - match_s is
	// negative here. The engine's own time is what the child's CPU
	// leaves after the layers measured on their own.
	self := st.CPUS - st.SourceReadS - m.MatchS - trackRun - st.SinkEmitS
	rep.set("engine.settle_self_s", self, "s", 0, "child CPU - parse - matching - tracker - sink")
	rep.set("swarm.tracker_ns_per_event", trackS/float64(events)*1e9, "ns", 0, "in process over the trace")
	rep.set("swarm.events", float64(events), "count", 0, "per pass over the trace")
	setMatching(rep, *m, 1, "traced replays")
	rep.set("consumelocal.source_read_s", st.SourceReadS, "s", 0, "")
	rep.set("consumelocal.sink_emit_s", st.SinkEmitS, "s", 0, "")
	rep.set("consumelocal.push_blocked_s", 0, "s", 0, "no ingest queue on this path")
	rep.set("consumelocal.queue_peak", 0, "count", 0, "no ingest queue on this path")
	rep.set("joblog.fsyncs", 0, "count", 0, "no journal on this path")
	rep.set("joblog.fsyncs_per_batch", 0, "ratio", 0, "no journal on this path")
	for _, name := range []string{"joblog.fsync_ms_p50", "joblog.fsync_ms_p99", "joblog.append_ms_p50"} {
		rep.set(name, 0, "ms", 0, "no journal on this path")
	}
	rep.set("joblog.bytes_per_session", 0, "B/session", 0, "no journal on this path")
	for _, name := range []string{"consumelocald.server_ms_p50", "consumelocald.server_ms_p99",
		"consumelocald.client_gap_ms_p50", "consumelocald.snapshot_emit_ms_p99"} {
		rep.set(name, 0, "ms", 0, "no daemon on this path")
	}
	rep.set("consumelocald.cpu_s", st.CPUS, "s", 0, "replay child CPU during the traced replays")
	rep.set("consumelocald.cpu_us_per_session", st.CPUS/st.Sessions*1e6, "us/session", 0, "")
	rep.set("bench.late_ms_p99", 0, "ms", 0, "no open-loop generator")
	var tw, uw []float64
	for _, l := range traced {
		tw = append(tw, l.WallS)
	}
	for _, r := range rates {
		uw = append(uw, float64(sessions)/r)
	}
	rep.set("bench.trace_overhead", median(tw)/median(uw)-1, "ratio", 0, "traced / untraced replay wall - 1")

	l := &ledger{
		Workload: opt.shape.Name, E2EBusyS: float64(st.Workers) * st.WallS,
		E2EWhat:      fmt.Sprintf("%d workers x %.3gs of traced replays", st.Workers, st.WallS),
		PeersPerCall: m.PeersMean,
	}
	l.Rows = []ledgerRow{
		{Layer: "trace", What: "CSV parse (Source.Next)", Count: st.Sessions, BusyS: st.SourceReadS, Summed: true},
		{Layer: "matching", What: "MatchInto", Count: float64(m.Calls), BusyS: m.MatchS, Summed: true},
		{Layer: "swarm", What: "Tracker events (in-process rate)", Count: float64(events) * float64(st.Replays),
			BusyS: trackRun, Summed: true},
		{Layer: "engine", What: "settle at window marks", Count: st.Windows, BusyS: st.SettleS},
		{Layer: "engine", What: "self: CPU left by the rows above", Count: st.Sessions, BusyS: self},
		{Layer: "consumelocal", What: "sink emit", Count: st.Windows, BusyS: st.SinkEmitS, Summed: true},
	}
	rep.set("bench.explained_fraction", l.explained(), "ratio", 0, "summed ledger rows / end-to-end busy")
	rep.Ledger = l
	return nil
}

// layers fills the per-layer metrics of a traced ingest run: the
// daemon's /metrics deltas over the traced pass t, in-process runs of
// each layer's public functions on the batches t pushed, and the
// traced pass's overhead against the untraced pass p.
func (r *ingestRun) layers(rep *report, p, t *phase) error {
	var bodies [][]byte
	var pushed []batch
	for _, i := range t.pushed {
		bodies = append(bodies, r.batches[i].body)
		pushed = append(pushed, r.batches[i])
	}
	nParse, parseS, err := measureParse(bodies)
	if err != nil {
		return err
	}
	rep.set("trace.parse_ns_per_session", parseS/float64(nParse)*1e9, "ns", 0, "ReadSessionsCSV over the pushed bodies")
	rep.set("trace.parse_s", parseS, "s", 0, fmt.Sprintf("%d bodies", len(bodies)))
	nRender, renderS := measureRender(pushed)
	rep.set("trace.render_ns_per_session", renderS/float64(nRender)*1e9, "ns", 0, "journal re-render of the pushed batches")

	b, a := t.before, t.after
	settle := counterDelta(b, a, "consumelocal_replay_settle_seconds_total")
	m, err := measureMatching(r.meta, r.trace)
	if err != nil {
		return err
	}
	// The daemon's matching is not observable from outside: scale one
	// in-process pass over the trace to the sessions the pass acked.
	scale := float64(t.acked) / float64(len(r.trace))
	rep.set("engine.settle_s", settle, "s", 0, "/metrics delta")
	rep.set("engine.windows", counterDelta(b, a, "consumelocal_replay_windows_settled_total"), "count", 0, "/metrics delta")
	nproc := runtime.NumCPU()
	multi, err := replayRate(r.meta, r.trace, r.opt.shape.WindowSec, nproc)
	if err != nil {
		return err
	}
	one, err := replayRate(r.meta, r.trace, r.opt.shape.WindowSec, 1)
	if err != nil {
		return err
	}
	rep.set("engine.worker_scaling", multi/one, "ratio", 0, fmt.Sprintf("in-process replay of the trace, %d workers / 1", nproc))
	events, trackS := measureTracker(r.trace)
	// As on replay-vod, settle_s - match_s would be negative; the
	// engine's own time is bounded by the daemon CPU the measured layers
	// leave (which here also holds HTTP, logging and journal CPU).
	self := t.cpuS - parseS - renderS - (m.MatchS+trackS)*scale
	rep.set("engine.settle_self_s", self, "s", 0, "daemon CPU - parse - render - matching - tracker")
	rep.set("swarm.tracker_ns_per_event", trackS/float64(events)*1e9, "ns", 0, "in process over the trace")
	rep.set("swarm.events", float64(events), "count", 0, "per pass over the trace")
	setMatching(rep, m, scale, "in-process pass scaled to the acked sessions")

	rep.set("consumelocal.source_read_s", counterDelta(b, a, "consumelocal_replay_source_read_seconds_total"), "s", 0, "/metrics delta, includes waiting on the producer")
	rep.set("consumelocal.sink_emit_s", counterDelta(b, a, "consumelocal_replay_sink_emit_seconds_total"), "s", 0, "/metrics delta")
	blocked := counterDelta(b, a, "consumelocald_ingest_blocked_seconds_total")
	rep.set("consumelocal.push_blocked_s", blocked, "s", 0, "/metrics delta")
	rep.set("consumelocal.queue_peak", maxOf(t.queueDepth), "count", len(t.queueDepth), "largest sampled queue depth")

	fs := histogramDelta(b, a, "consumelocald_journal_fsync_seconds")
	batches := counterDelta(b, a, "consumelocald_ingest_batches_total")
	rep.set("joblog.fsyncs", fs.count, "count", 0, "/metrics delta")
	rep.set("joblog.fsync_ms_p50", 1e3*fs.quantile(0.5), "ms", int(fs.count), "histogram estimate")
	rep.set("joblog.fsync_ms_p99", 1e3*fs.quantile(0.99), "ms", int(fs.count), "histogram estimate")
	rep.set("joblog.fsyncs_per_batch", fs.count/batches, "ratio", 0, "")
	grown := counterDelta(b, a, "consumelocald_journal_size_bytes") +
		counterDelta(b, a, "consumelocald_journal_compaction_reclaimed_bytes_total")
	rep.set("joblog.bytes_per_session", grown/float64(t.acked), "B/session", 0, "journal growth incl. compacted bytes")
	dir := filepath.Join(r.opt.dir, "journal-bench")
	appendMs, err := measureJournal(dir, pushed[:min(len(pushed), 400)])
	if err != nil {
		return err
	}
	os.RemoveAll(dir)
	rep.set("joblog.append_ms_p50", nearest(appendMs, 0.5), "ms", len(appendMs), "in process, same filesystem")

	// The latency histogram covers every route: take the requests the
	// client timed as non-batch back out so what is left is the batches.
	srv := histogramDelta(b, a, "consumelocald_http_request_seconds")
	for _, d := range t.nonBatch {
		srv.remove(d)
	}
	serverP50 := 1e3 * srv.quantile(0.5)
	rep.set("consumelocald.server_ms_p50", serverP50, "ms", int(srv.count), "batch requests, histogram estimate")
	rep.set("consumelocald.server_ms_p99", 1e3*srv.quantile(0.99), "ms", int(srv.count), "batch requests, histogram estimate")
	rep.set("consumelocald.client_gap_ms_p50", nearest(t.rttMs, 0.5)-serverP50, "ms", len(t.rttMs), "client sent->200 p50 - server p50")
	emit := histogramDelta(b, a, "consumelocald_snapshot_emit_seconds")
	rep.set("consumelocald.snapshot_emit_ms_p99", 1e3*emit.quantile(0.99), "ms", int(emit.count), "histogram estimate")
	rep.set("consumelocald.cpu_s", t.cpuS, "s", 0, "daemon utime+stime over the traced pass")
	rep.set("consumelocald.cpu_us_per_session", t.cpuS/float64(t.acked)*1e6, "us/session", 0, "")
	late := 0.0
	if r.opt.shape.Kind == "live" {
		late = nearest(t.lateMs, 0.99)
	}
	rep.set("bench.late_ms_p99", late, "ms", len(t.lateMs), "sent - due (open loop only)")
	rep.set("bench.trace_overhead", nearest(t.ackMs, 0.5)/nearest(p.ackMs, 0.5)-1, "ratio", 0, "traced / untraced ack p50 - 1")

	// Ledger: the batch requests' layers against the daemon's server
	// time for them.
	l := &ledger{
		Workload: r.opt.shape.Name, E2EBusyS: srv.sum,
		E2EWhat:      fmt.Sprintf("%.0f batch requests, daemon server time", srv.count),
		PeersPerCall: m.PeersMean,
	}
	l.Rows = []ledgerRow{
		{Layer: "trace", What: "CSV parse (in-process rate)", Count: float64(nParse), BusyS: parseS, Summed: true},
		{Layer: "trace", What: "journal re-render (in-process rate)", Count: float64(nRender), BusyS: renderS, Summed: true},
		{Layer: "consumelocal", What: "push: backpressure wait", Count: batches, WaitS: blocked, Summed: true},
		{Layer: "joblog", What: "append write+fsync", Count: fs.count, BusyS: fs.sum, Summed: true},
		{Layer: "matching", What: "MatchInto (in-process rate, off the ack path)", Count: float64(m.Calls) * scale, BusyS: m.MatchS * scale},
		{Layer: "engine", What: "settle at window marks (off the ack path)", Count: counterDelta(b, a, "consumelocal_replay_windows_settled_total"), BusyS: settle},
		{Layer: "engine", What: "self and HTTP: CPU left by the layers", Count: float64(t.acked), BusyS: self},
		{Layer: "consumelocald", What: "daemon CPU (all goroutines)", Count: float64(t.acked), BusyS: t.cpuS},
	}
	rep.set("bench.explained_fraction", l.explained(), "ratio", 0, "summed ledger rows / batch server time")
	rep.Ledger = l
	return nil
}
