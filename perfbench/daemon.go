package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// daemonProc is one consumelocald process under test.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
}

// startDaemon launches the daemon durable on an ephemeral port and
// returns once it has logged its bound address. Its log is read and
// discarded, so logging costs the daemon what it costs in production.
func startDaemon(bin, dataDir string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-drain", "5s")
	cmd.SysProcAttr = dieWithParent()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, `msg="consumelocald listening"`) {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addr <- a
					}
				}
				break
			}
		}
		close(addr)
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			cmd.Wait()
			return nil, fmt.Errorf("consumelocald exited before listening: %v", cmd.ProcessState)
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		<-d.logDone
		return nil, fmt.Errorf("consumelocald did not listen within 30s")
	}
}

// dieWithParent makes a child process receive SIGKILL if this process
// dies first, so a benchmark killed mid-run leaves no daemon or replay
// child behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stop shuts the daemon down gracefully (SIGTERM) and waits for it.
func (d *daemonProc) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		err = fmt.Errorf("consumelocald ignored SIGTERM for 30s: %v", <-done)
	}
	<-d.logDone
	return err
}

// peakRSSMiB reads the daemon's VmHWM.
func (d *daemonProc) peakRSSMiB() (float64, error) {
	return procStatusMiB(d.cmd.Process.Pid, "VmHWM:")
}

// procStatusMiB reads one kB-valued field of /proc/<pid>/status.
func procStatusMiB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssEvery is how often the RSS sampler reads VmRSS.
const rssEvery = 20 * time.Millisecond

// rssSampler records the highest VmRSS of a process within each tenth
// of a measurement window. The median of those peaks moves only when
// most of the run holds more memory, where VmHWM moves with one
// transient spike.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks [segmentsPerRun]float64
}

// sampleRSS samples pid from now until stop; the window of length is
// cut into segmentsPerRun tenths, samples after it counting in the last.
func sampleRSS(pid int, length time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	t0 := time.Now()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mib, err := procStatusMiB(pid, "VmRSS:"); err == nil {
				seg := min(int(time.Since(t0)*segmentsPerRun/length), segmentsPerRun-1)
				s.peaks[seg] = max(s.peaks[seg], mib)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median of the per-tenth
// peaks, leaving out tenths without a sample.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	var peaks []float64
	for _, p := range s.peaks {
		if p > 0 {
			peaks = append(peaks, p)
		}
	}
	return median(peaks)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the daemon's user+system CPU time.
func (d *daemonProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// after it are space separated, utime and stime being the 12th and
	// 13th.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", d.cmd.Process.Pid, err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// conn is one client connection: a transport capped at one TCP
// connection, so the load generator's connection count is structural.
type conn struct {
	base   string
	tr     *http.Transport
	client *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, MaxIdleConns: 1,
		IdleConnTimeout: 5 * time.Minute, DisableCompression: true,
	}
	return &conn{base: base, tr: tr, client: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response. A transport error
// is returned as err; any HTTP status is returned as status.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/csv")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape fetches and lint-parses /metrics.
func (c *conn) scrape() (*obs.Exposition, error) {
	status, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", status)
	}
	return obs.ParseExposition(bytes.NewReader(body))
}

// ingestQuery is the job-creation query of an ingest stream carrying
// meta, on the daemon's defaults otherwise (the paper configuration,
// q/β = 1, streaming engine, workers = the daemon's GOMAXPROCS).
func ingestQuery(meta trace.Meta, window int64, name string) string {
	q := url.Values{}
	q.Set("source", "ingest")
	q.Set("name", name)
	q.Set("horizon", strconv.FormatInt(meta.HorizonSec, 10))
	q.Set("users", strconv.Itoa(meta.NumUsers))
	q.Set("content", strconv.Itoa(meta.NumContent))
	q.Set("isps", strconv.Itoa(meta.NumISPs))
	q.Set("epoch", meta.Epoch.Format(time.RFC3339))
	q.Set("window", strconv.FormatInt(window, 10))
	return q.Encode()
}

// createJob opens an ingest job and returns its ID.
func (c *conn) createJob(query string) (int, error) {
	status, body, err := c.do("POST", "/v1/jobs?"+query, nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusAccepted {
		return 0, fmt.Errorf("create job: %d %s", status, bytes.TrimSpace(body))
	}
	var v struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("create job: %w", err)
	}
	return v.ID, nil
}

// energyTally reads a finished job's final tally.
func (c *conn) energyTally(id int) (sim.Tally, error) {
	status, body, err := c.do("GET", fmt.Sprintf("/v1/jobs/%d/energy", id), nil)
	if err != nil {
		return sim.Tally{}, err
	}
	if status != http.StatusOK {
		return sim.Tally{}, fmt.Errorf("energy of job %d: %d", id, status)
	}
	var v struct {
		Status string    `json:"status"`
		Tally  sim.Tally `json:"tally"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return sim.Tally{}, err
	}
	if v.Status != "done" {
		return sim.Tally{}, fmt.Errorf("job %d is %s, not done", id, v.Status)
	}
	return v.Tally, nil
}

// snapshotEvent is one line of a job's snapshot stream as the follower
// saw it.
type snapshotEvent struct {
	Index int
	Final bool
	At    time.Time
}

// follow streams a job's snapshots until its terminal status line and
// returns every snapshot with its arrival time, the terminal status and
// when it arrived.
func (c *conn) follow(id int) ([]snapshotEvent, string, time.Time, error) {
	req, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/jobs/%d/snapshots", c.base, id), nil)
	if err != nil {
		return nil, "", time.Time{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, "", time.Time{}, fmt.Errorf("follow job %d: %d", id, resp.StatusCode)
	}
	var events []snapshotEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		at := time.Now()
		var line struct {
			Index  *int   `json:"index"`
			Final  bool   `json:"final"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return events, "", time.Time{}, fmt.Errorf("follow job %d: %w", id, err)
		}
		if line.Status != "" {
			io.Copy(io.Discard, resp.Body)
			return events, line.Status, at, nil
		}
		if line.Index != nil {
			events = append(events, snapshotEvent{Index: *line.Index, Final: line.Final, At: at})
		}
	}
	if err := sc.Err(); err != nil {
		return events, "", time.Time{}, err
	}
	return events, "", time.Time{}, fmt.Errorf("follow job %d: stream ended without a status line", id)
}

// cancelJob deletes a job, used to retire the set-up job.
func (c *conn) cancelJob(id int) error {
	status, _, err := c.do("DELETE", fmt.Sprintf("/v1/jobs/%d", id), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cancel job %d: %d", id, status)
	}
	return nil
}

// setupDaemon starts a daemon and times exec -> /healthz 200 -> ingest
// job created, then cancels that job. The caller owns the returned
// daemon and connection.
func setupDaemon(bin, dataDir, query string) (*daemonProc, *conn, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newConn(d.base)
	fail := func(err error) (*daemonProc, *conn, float64, error) {
		c.close()
		d.stop()
		return nil, nil, 0, err
	}
	status, _, err := c.do("GET", "/healthz", nil)
	if err != nil {
		return fail(err)
	}
	if status != http.StatusOK {
		return fail(fmt.Errorf("healthz: %d", status))
	}
	id, err := c.createJob(query)
	if err != nil {
		return fail(err)
	}
	took := time.Since(t0).Seconds()
	if err := c.cancelJob(id); err != nil {
		return fail(err)
	}
	return d, c, took, nil
}

// measuredDaemon runs the set-up SetupRuns times on fresh data
// directories and keeps the last daemon for the measurement.
func measuredDaemon(opt options, query string) (*daemonProc, *conn, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dataDir := fmt.Sprintf("%s/data-%d", opt.dir, i)
		d, c, took, err := setupDaemon(opt.daemon, dataDir, query)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("daemon set-up %d: %w", i, err)
		}
		setups = append(setups, took)
		if i == opt.shape.SetupRuns-1 {
			return d, c, setups, nil
		}
		c.close()
		if err := d.stop(); err != nil {
			return nil, nil, nil, err
		}
		os.RemoveAll(dataDir)
	}
}
