package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// batch is one ingest POST: a run of sessions in start order, rendered
// once up front, and the watermark it advances to (its last session's
// start — no later session starts before it).
type batch struct {
	body      []byte
	sessions  []trace.Session
	end       int // sessions in the trace up to and including this batch
	watermark int64
}

func makeBatches(sessions []trace.Session, size int) []batch {
	var out []batch
	for i := 0; i < len(sessions); i += size {
		j := min(i+size, len(sessions))
		var body []byte
		for _, s := range sessions[i:j] {
			body = trace.AppendSessionCSV(body, s)
		}
		out = append(out, batch{body: body, sessions: sessions[i:j], end: j, watermark: sessions[j-1].StartSec})
	}
	return out
}

// closers maps every reporting window that holds sessions to the index
// of the batch whose watermark closes it: the first batch reaching the
// window's end.
func closers(batches []batch, window int64) map[int]int {
	has := make(map[int]bool)
	for _, b := range batches {
		for _, s := range b.sessions {
			has[int(s.StartSec/window)] = true
		}
	}
	out := make(map[int]int)
	k := 0 // lowest window not yet closed
	for i, b := range batches {
		for int64(k+1)*window <= b.watermark {
			if has[k] {
				out[k] = i
			}
			k++
		}
	}
	return out
}

// jobOutcome is one finished ingest job, checked after the run.
type jobOutcome struct {
	id       int
	accepted int // sessions the daemon accepted: a prefix of the trace
	tally    sim.Tally
	err      error
}

// ingestRun is one ingest workload run: the inputs, the daemon and the
// client connections, shared by its phases.
type ingestRun struct {
	opt     options
	meta    trace.Meta
	trace   []trace.Session
	batches []batch
	query   string
	d       *daemonProc
	conns   []*conn
}

// phase is one timed pass of the workload over the run's daemon: the
// untraced pass every run makes, and the traced pass of a traced run.
type phase struct {
	r   *ingestRun
	rec *spanRecorder // nil when untraced
	t0  time.Time

	mu        sync.Mutex
	attempted int
	failed    int
	acked     int64
	pushed    []int     // indices of acknowledged batches, in order
	ackMs     []float64 // due -> 200 (sent -> 200 in a closed loop)
	// ackBySeg splits ackMs into tenths of the run by due time;
	// ackedBySeg counts the sessions acknowledged in each tenth.
	ackBySeg   [segmentsPerRun][]float64
	ackedBySeg [segmentsPerRun]int64
	rttMs      []float64 // sent -> 200
	lateMs     []float64 // sent - due (open loop)
	resultMs   []float64
	lagMs      []float64
	jobs       []jobOutcome
	// pushS is the open loop's time in push phases: first batch due
	// until last batch acknowledged, summed over broadcasts.
	pushS float64
	// nonBatch holds the client-side durations of every request that
	// is not a batch POST, to take them back out of the daemon's
	// all-route latency histogram.
	nonBatch []float64
	// queueDepth samples consumelocald_ingest_queue_depth (traced pass).
	queueDepth []float64

	before, after *obs.Exposition
	cpuS          float64
	wall          time.Duration
	rss           float64 // median per-tenth peak RSS of the daemon
}

func (r *ingestRun) newPhase(traced bool) *phase {
	p := &phase{r: r}
	if traced {
		p.rec = newSpanRecorder()
	}
	return p
}

// account records one finished workload request.
func (p *phase) account(name string, req, parent uint64, start, end time.Time, ok bool) {
	p.rec.add(name, req, parent, start, end)
	p.mu.Lock()
	p.attempted++
	if !ok {
		p.failed++
	}
	if name != "http.batch" {
		p.nonBatch = append(p.nonBatch, end.Sub(start).Seconds())
	}
	p.mu.Unlock()
}

// create opens one ingest job on c.
func (p *phase) create(c *conn, req uint64) (int, error) {
	s0 := time.Now()
	id, err := c.createJob(p.r.query)
	p.account("http.create", req, 0, s0, time.Now(), err == nil)
	return id, err
}

// postBatch pushes batch i to job id. due is when the batch was due to
// be sent.
func (p *phase) postBatch(c *conn, id, i int, due time.Time, parent uint64) (time.Time, error) {
	b := p.r.batches[i]
	path := fmt.Sprintf("/v1/jobs/%d/sessions?watermark=%d", id, b.watermark)
	start := time.Now()
	status, data, err := c.do("POST", path, b.body)
	end := time.Now()
	p.account("http.batch", p.rec.newID(), parent, start, end, err == nil && status == http.StatusOK)
	if err != nil {
		return end, err
	}
	var v struct {
		Pushed int `json:"pushed"`
	}
	jerr := json.Unmarshal(data, &v)
	if status != http.StatusOK {
		return end, fmt.Errorf("batch %d of job %d: %d %s", i, id, status, data)
	}
	if jerr != nil || v.Pushed != len(b.sessions) {
		return end, fmt.Errorf("batch %d of job %d: acknowledged %d of %d sessions", i, id, v.Pushed, len(b.sessions))
	}
	p.mu.Lock()
	p.acked += int64(v.Pushed)
	p.pushed = append(p.pushed, i)
	p.ackMs = append(p.ackMs, ms(end.Sub(due)))
	seg := int(due.Sub(p.t0) * segmentsPerRun / p.r.opt.seconds)
	seg = max(0, min(seg, segmentsPerRun-1))
	p.ackBySeg[seg] = append(p.ackBySeg[seg], ms(end.Sub(due)))
	if at := end.Sub(p.t0); at < p.r.opt.seconds {
		p.ackedBySeg[int(at*segmentsPerRun/p.r.opt.seconds)] += int64(v.Pushed)
	}
	p.rttMs = append(p.rttMs, ms(end.Sub(start)))
	p.lateMs = append(p.lateMs, ms(start.Sub(due)))
	p.mu.Unlock()
	return end, nil
}

// finish seals job id on c.
func (p *phase) finish(c *conn, id int, parent uint64) time.Time {
	sent := time.Now()
	status, _, err := c.do("POST", fmt.Sprintf("/v1/jobs/%d/finish", id), nil)
	p.account("http.finish", p.rec.newID(), parent, sent, time.Now(), err == nil && status == http.StatusOK)
	return sent
}

// follow streams job id's snapshots on c until its terminal line.
func (p *phase) follow(c *conn, id int, parent uint64) ([]snapshotEvent, string, time.Time, error) {
	s0 := time.Now()
	events, status, at, err := c.follow(id)
	p.account("http.follow", p.rec.newID(), parent, s0, time.Now(), err == nil)
	return events, status, at, err
}

// settle reads a finished job's tally on c and files its outcome:
// accepted is the length of the trace prefix the daemon acknowledged.
func (p *phase) settle(c *conn, id, accepted int, finishSent time.Time, status string, at time.Time, ferr error, parent uint64) {
	out := jobOutcome{id: id, accepted: accepted, err: ferr}
	if ferr == nil && status != "done" {
		out.err = fmt.Errorf("job %d ended %q", id, status)
	}
	if out.err == nil {
		s0 := time.Now()
		out.tally, out.err = c.energyTally(id)
		p.account("http.energy", p.rec.newID(), parent, s0, time.Now(), out.err == nil)
	}
	p.mu.Lock()
	if out.err == nil {
		p.resultMs = append(p.resultMs, ms(at.Sub(finishSent)))
	}
	p.jobs = append(p.jobs, out)
	p.mu.Unlock()
}

// sampleQueue records the daemon's aggregate ingest queue depth, in the
// traced pass only and at most every 100 ms.
func (p *phase) sampleQueue(c *conn, last *time.Time) {
	if p.rec == nil || time.Since(*last) < 100*time.Millisecond {
		return
	}
	s0 := time.Now()
	*last = s0
	exp, err := c.scrape()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nonBatch = append(p.nonBatch, time.Since(s0).Seconds())
	if err == nil {
		v, _ := exp.Value("consumelocald_ingest_queue_depth")
		p.queueDepth = append(p.queueDepth, v)
	}
}

// segmentsPerRun is how many equal slices of the run the ingest
// latency percentiles are taken in before their median is reported.
const segmentsPerRun = 10

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// schedule is the open-loop plan of ingest-live, fixed before the run
// starts from the seeded trace: broadcast j opens at its start offset,
// and its batches fall due every interval after a short lead for the
// job creation.
type schedule struct {
	starts  []time.Duration // broadcast start offsets from the run start
	batches []int           // batches due within the run, per broadcast
	every   time.Duration
}

// liveLead is the time between opening a broadcast and its first batch.
const liveLead = 50 * time.Millisecond

func (s schedule) dueOffset(i int) time.Duration { return liveLead + time.Duration(i)*s.every }

func liveSchedule(nBatches int, every, gap, length time.Duration) schedule {
	s := schedule{every: every}
	span := liveLead + time.Duration(nBatches)*every + gap
	for start := time.Duration(0); start < length; start += span {
		n := 0
		for n < nBatches && start+s.dueOffset(n) < length {
			n++
		}
		if n == 0 {
			break
		}
		s.starts = append(s.starts, start)
		s.batches = append(s.batches, n)
	}
	return s
}

// runLive drives ingest-live: one producer connection pushes the live
// trace broadcast after broadcast on the fixed schedule, the other
// follows the current broadcast's snapshots.
func runLive(opt options) (*report, error) {
	r, err := newIngestRun(opt)
	if err != nil {
		return nil, err
	}
	sh := opt.shape
	every := time.Duration(float64(sh.Batch) / sh.Rate * float64(time.Second))
	gap := time.Duration(sh.JobGapSec * float64(time.Second))
	sched := liveSchedule(len(r.batches), every, gap, opt.seconds)
	closing := closers(r.batches, sh.WindowSec)
	due := 0
	for _, n := range sched.batches {
		due += n
	}
	fmt.Printf("schedule   %d broadcasts, a batch every %s, %d batches due in %s\n",
		len(sched.starts), every, due, opt.seconds)
	return r.drive(func(p *phase) { p.live(sched, closing) })
}

func (p *phase) live(sched schedule, closing map[int]int) {
	r := p.r
	type following struct {
		id       int
		start    time.Time
		req      uint64
		pushed   chan int // batches acknowledged
		finished chan time.Time
	}
	jobs := make(chan following, len(sched.starts))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := r.conns[1]
		for f := range jobs {
			events, status, at, ferr := p.follow(c, f.id, f.req)
			n := <-f.pushed
			finishSent := <-f.finished
			var lags []float64
			for _, ev := range events {
				if bi, ok := closing[ev.Index]; ok && !ev.Final && bi < n {
					lags = append(lags, ms(ev.At.Sub(f.start.Add(sched.dueOffset(bi)))))
				}
			}
			p.mu.Lock()
			p.lagMs = append(p.lagMs, lags...)
			p.mu.Unlock()
			accepted := 0
			if n > 0 {
				accepted = r.batches[n-1].end
			}
			p.settle(c, f.id, accepted, finishSent, status, at, ferr, f.req)
		}
	}()

	prod := r.conns[0]
	var lastSample time.Time
	for j, off := range sched.starts {
		start := p.t0.Add(off)
		sleepUntil(start)
		req := p.rec.newID()
		id, err := p.create(prod, req)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		f := following{id: id, start: start, req: req, pushed: make(chan int, 1), finished: make(chan time.Time, 1)}
		jobs <- f
		n := 0
		var lastAck time.Time
		for i := 0; i < sched.batches[j]; i++ {
			due := start.Add(sched.dueOffset(i))
			sleepUntil(due)
			end, err := p.postBatch(prod, id, i, due, req)
			if err != nil {
				fmt.Fprintf(os.Stderr, "broadcast %d: %v\n", j, err)
				break
			}
			n, lastAck = i+1, end
			p.sampleQueue(prod, &lastSample)
		}
		if n > 0 {
			p.mu.Lock()
			p.pushS += lastAck.Sub(start.Add(sched.dueOffset(0))).Seconds()
			p.mu.Unlock()
		}
		f.pushed <- n
		f.finished <- p.finish(prod, id, req)
	}
	close(jobs)
	wg.Wait()
}

// runCatchup drives ingest-catchup: every connection opens its own job,
// pushes the catch-up trace as fast as acknowledgements return, seals
// it, waits for the final result on the same connection and starts
// over until the run's time is up; the last job is sealed early.
func runCatchup(opt options) (*report, error) {
	r, err := newIngestRun(opt)
	if err != nil {
		return nil, err
	}
	return r.drive((*phase).catchup)
}

func (p *phase) catchup() {
	r := p.r
	deadline := p.t0.Add(r.opt.seconds)
	var wg sync.WaitGroup
	for ci, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSample time.Time
			for time.Now().Before(deadline) {
				req := p.rec.newID()
				id, err := p.create(c, req)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				n := 0
				for i := range r.batches {
					if i > 0 && !time.Now().Before(deadline) {
						break
					}
					if _, err := p.postBatch(c, id, i, time.Now(), req); err != nil {
						fmt.Fprintln(os.Stderr, err)
						break
					}
					n = i + 1
					if ci == 0 {
						p.sampleQueue(c, &lastSample)
					}
				}
				finishSent := p.finish(c, id, req)
				_, status, at, ferr := p.follow(c, id, req)
				accepted := 0
				if n > 0 {
					accepted = r.batches[n-1].end
				}
				p.settle(c, id, accepted, finishSent, status, at, ferr, req)
			}
		}()
	}
	wg.Wait()
}

func newIngestRun(opt options) (*ingestRun, error) {
	tr, err := opt.shape.generate(opt.seed)
	if err != nil {
		return nil, err
	}
	r := &ingestRun{
		opt: opt, meta: tr.Meta(), trace: tr.Sessions,
		batches: makeBatches(tr.Sessions, opt.shape.Batch),
		query:   ingestQuery(tr.Meta(), opt.shape.WindowSec, opt.shape.Name),
	}
	fmt.Printf("input      %d sessions per job in %d batches\n", len(tr.Sessions), len(r.batches))
	return r, nil
}

// run executes one pass of body, bracketed by /metrics scrapes and
// daemon CPU readings.
func (r *ingestRun) run(traced bool, body func(*phase)) (*phase, error) {
	p := r.newPhase(traced)
	var err error
	// The opening scrape is itself observed in the daemon's latency
	// histogram between the two scrapes; the closing one is not.
	s0 := time.Now()
	if p.before, err = r.conns[0].scrape(); err != nil {
		return nil, err
	}
	p.nonBatch = append(p.nonBatch, time.Since(s0).Seconds())
	cpu0, err := r.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(r.d.cmd.Process.Pid, r.opt.seconds)
	p.t0 = time.Now()
	body(p)
	p.wall = time.Since(p.t0)
	p.rss = rss.finish()
	cpu1, err := r.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.cpuS = cpu1 - cpu0
	if p.after, err = r.conns[0].scrape(); err != nil {
		return nil, err
	}
	return p, nil
}

// check verifies a pass: every job's result equals the oracle over the
// sessions it accepted, and the daemon counted exactly the sessions the
// client saw acknowledged.
func (p *phase) check(rep *report, oracle *oracleCache) error {
	rep.Attempted += p.attempted
	rep.Failed += p.failed
	for _, j := range p.jobs {
		if j.err != nil {
			rep.problem("job %d: %v", j.id, j.err)
			continue
		}
		want, err := oracle.total(j.accepted)
		if err != nil {
			return fmt.Errorf("oracle over %d sessions: %w", j.accepted, err)
		}
		if j.tally != want {
			rep.problem("job %d (%d sessions): tally %+v, oracle %+v", j.id, j.accepted, j.tally, want)
		}
	}
	if len(p.jobs) == 0 {
		rep.problem("no ingest job finished")
	}
	if pushed := counterDelta(p.before, p.after, "consumelocald_ingest_sessions_pushed_total"); pushed != float64(p.acked) {
		rep.problem("client acknowledged %d sessions, daemon counted %.0f pushed", p.acked, pushed)
	}
	return nil
}

// rate is the acknowledged session rate. In the open loop it is
// acknowledged sessions per second of push phase (the rate the daemon
// kept up with while a broadcast was due); in the closed loop it is the
// median over tenths of the run of the sessions acknowledged in that
// tenth, so a burst of machine noise in one tenth does not move it.
func (p *phase) rate() float64 {
	if p.r.opt.shape.Kind == "live" {
		return float64(p.acked) / p.pushS
	}
	tenth := p.r.opt.seconds.Seconds() / segmentsPerRun
	var per []float64
	for _, n := range p.ackedBySeg {
		per = append(per, float64(n)/tenth)
	}
	return median(per)
}

// drive sets the daemon up, runs the untraced pass (and, for a traced
// run, the traced pass after it), checks both against the oracle and
// reports.
func (r *ingestRun) drive(body func(*phase)) (*report, error) {
	opt := r.opt
	sh := opt.shape
	oracle := newOracleCache(r.meta, r.trace)
	if _, err := oracle.total(len(r.trace)); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	runtime.GC()

	d, c0, setups, err := measuredDaemon(opt, r.query)
	if err != nil {
		return nil, err
	}
	r.d = d
	r.conns = []*conn{c0}
	for len(r.conns) < sh.Conns {
		r.conns = append(r.conns, newConn(d.base))
	}
	defer func() {
		for _, c := range r.conns {
			c.close()
		}
		d.stop()
	}()

	p, err := r.run(false, body)
	if err != nil {
		return nil, err
	}
	var t *phase
	if opt.traced {
		if t, err = r.run(true, body); err != nil {
			return nil, err
		}
	}
	hwm, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	rep := newReport()
	if err := p.check(rep, oracle); err != nil {
		return nil, err
	}
	if t != nil {
		if err := t.check(rep, oracle); err != nil {
			return nil, err
		}
	}
	how := "acknowledged sessions / push-phase wall"
	if sh.Kind == "catchup" {
		how = "median over tenths of the run of sessions acknowledged per second"
	}
	rep.set("sessions_per_s", p.rate(), "sessions/s", 0, how)
	what := "batch POST sent -> 200"
	if sh.Kind == "live" {
		what = "batch due -> 200 (open loop)"
	}
	segs := p.ackBySeg[:]
	rep.extraSegmented("latency_ms_p50", segs, 0.5, "ms", "tenths of the run, "+what)
	rep.extraSegmented("latency_ms_p75", segs, 0.75, "ms", "tenths of the run, "+what)
	rep.extraQuantile("ack_ms_p90", p.ackMs, 0.9, "ms", "whole run, "+what)
	rep.extraQuantile("ack_ms_p99", p.ackMs, 0.99, "ms", "whole run, "+what)
	rep.set("setup_s", median(setups), "s", len(setups), "median exec -> /healthz 200 -> ingest job created")
	rep.set("cpu_us_per_session", p.cpuS/float64(p.acked)*1e6, "us/session", 0, "daemon utime+stime / acknowledged sessions")
	if err := rep.setPeakRSS(p.rss, hwm); err != nil {
		return nil, err
	}
	rep.extraQuantile("final_result_ms_p50", p.resultMs, 0.5, "ms", "finish POST -> terminal status line")
	rep.extraQuantile("rtt_ms_p50", p.rttMs, 0.5, "ms", "batch POST sent -> 200")
	rep.extraQuantile("rtt_ms_p90", p.rttMs, 0.9, "ms", "batch POST sent -> 200")
	if sh.Kind == "live" {
		rep.extraQuantile("snapshot_lag_ms_p50", p.lagMs, 0.5, "ms", "closing batch due -> snapshot at follower")
		rep.extraQuantile("snapshot_lag_ms_p90", p.lagMs, 0.9, "ms", "closing batch due -> snapshot at follower")
		rep.extraQuantile("late_ms_p50", p.lateMs, 0.5, "ms", "generator lateness: sent - due")
		rep.extraQuantile("late_ms_p99", p.lateMs, 0.99, "ms", "generator lateness: sent - due")
		rep.extra("offered_sessions_per_s", sh.Rate, "sessions/s", 0, "fixed open-loop rate")
	}
	rep.extra("error_ratio", float64(p.failed)/float64(max(p.attempted, 1)), "failed/attempted", p.attempted, "")
	rep.extra("acked_sessions", float64(p.acked), "count", len(p.jobs), fmt.Sprintf("jobs, in %.1fs", p.wall.Seconds()))

	if t != nil {
		if err := r.layers(rep, p, t); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Dir(opt.spans), 0o755); err != nil {
			return nil, err
		}
		if err := t.rec.writeFile(opt.spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans      %d written to %s\n", t.rec.count(), opt.spans)
	}
	return rep, nil
}
