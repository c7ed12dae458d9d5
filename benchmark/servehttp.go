package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hermes/internal/metrics"
)

// serve_http is an open loop against a child `hermes-serve -backend
// native -workers 2` on a loopback port: 400 requests a second over two
// keep-alive connections, each request a POST /jobs followed by a GET
// /jobs/{id}?wait=5s until the job is done. The body is
// {"workload":"fibtree"} at its catalog default (about 0.1 ms in the
// pool); every fifth request carries tenant "lc", priority 1. A
// monitor scrapes GET /metrics once a second on a connection of its
// own. Latency runs from the instant a request was due, so a client
// that got to it late counts against the server's stall that made it
// late. A request is good if it reaches `done` within 5 ms of that
// instant; throughput is good requests a second.
//
// At about a tenth of saturation most requests find the pool's
// workers asleep; the median is nevertheless what a request costs at
// saturation (about 0.5 ms), which is the README's second finding.
const (
	serveRate      = 400.0 // requests per second
	serveConns     = 2
	serveSegments  = 5
	serveSLO       = 5 * time.Millisecond
	serveWarm      = 1000 // warm-up requests per connection
	serveWarmSmall = 10
	serveSatS      = 2.0 // closed-loop saturation probe after a traced window
	serveTraceCap  = 256 // the child's -trace-cap: arrivals /capacity replays
	serveSchedSalt = 0x5e7e
)

// schedule returns the instants, in seconds from the window's start,
// at which the open loop's requests are due: a Poisson process of the
// given rate conditioned on its count, so that every fifth of the
// window holds exactly a fifth of the requests at independent uniform
// offsets. The offered load is then the same in every segment and for
// every seed; only the spacing changes.
func schedule(seed int64, rate, seconds float64) []float64 {
	rng := rand.New(rand.NewPCG(uint64(seed), serveSchedSalt))
	per := int(rate * seconds / serveSegments)
	if per < 1 {
		per = 1
	}
	segLen := seconds / serveSegments
	due := make([]float64, 0, per*serveSegments)
	for k := 0; k < serveSegments; k++ {
		seg := make([]float64, per)
		for i := range seg {
			seg[i] = (float64(k) + rng.Float64()) * segLen
		}
		sort.Float64s(seg)
		due = append(due, seg...)
	}
	return due
}

// sleepUntil blocks until t in the kernel's high-resolution sleep.
// time.Sleep will not do for pacing: in a process with nothing else to
// run, the Go runtime waits for its timers in epoll_wait, whose
// timeout counts whole milliseconds, so every request would be sent up
// to a millisecond late and that lateness would be charged to the
// server.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// serveChild is a running hermes-serve.
type serveChild struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    bytes.Buffer
}

// startServe starts the server on a free loopback port and waits until
// /healthz answers.
func startServe(bin string) (*serveChild, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	c := &serveChild{
		cmd: exec.Command(bin, "-addr", addr, "-backend", "native",
			"-workers", fmt.Sprint(fjWorkers), "-trace-cap", fmt.Sprint(serveTraceCap)),
		base:   "http://" + addr,
		exited: make(chan struct{}),
	}
	c.cmd.Stdout, c.cmd.Stderr = &c.log, &c.log
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("hermes-serve exited during start-up:\n%s", c.log.String())
		default:
		}
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.stop()
	return nil, fmt.Errorf("hermes-serve did not answer /healthz within 10s:\n%s", c.log.String())
}

// stop ends the child with SIGTERM, kills it if it will not drain, and
// returns only once it has been reaped.
func (c *serveChild) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

func (c *serveChild) pid() int { return c.cmd.Process.Pid }

// newClient returns an HTTP client capped at conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 15 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// reqResult is the client's view of one request.
type reqResult struct {
	submitMS, waitMS float64
	sojournMS        float64 // the job report's own sojourn
	shed             bool    // 429
	err              error   // anything but a `done` job
}

var (
	bodyPlain = []byte(`{"workload":"fibtree"}`)
	bodyLC    = []byte(`{"workload":"fibtree","tenant":"lc","priority":1}`)
)

// doRequest submits one job and long-polls it to completion.
func doRequest(cl *http.Client, base string, classed bool, tr *tracer, root int32, op int64) (r reqResult) {
	body := bodyPlain
	if classed {
		body = bodyLC
	}
	s := tr.begin("serve.submit", root, op)
	t0 := time.Now()
	resp, err := cl.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(s)
		r.err = err
		return r
	}
	var accepted struct {
		ID int64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(s)
	r.submitMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.shed = true
		r.err = fmt.Errorf("POST /jobs: 429")
		return r
	case resp.StatusCode != http.StatusAccepted:
		r.err = fmt.Errorf("POST /jobs: status %d", resp.StatusCode)
		return r
	case err != nil:
		r.err = fmt.Errorf("POST /jobs: %w", err)
		return r
	}

	s = tr.begin("serve.wait", root, op)
	defer tr.end(s)
	t1 := time.Now()
	resp, err = cl.Get(fmt.Sprintf("%s/jobs/%d?wait=5s", base, accepted.ID))
	if err != nil {
		r.err = err
		return r
	}
	var st struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Report *struct {
			SojournMS float64 `json:"sojourn_ms"`
		} `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.waitMS = float64(time.Since(t1).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		r.err = fmt.Errorf("GET /jobs/%d: %w", accepted.ID, err)
	case st.Status != "done" || st.Report == nil:
		r.err = fmt.Errorf("job %d: status %q %s", accepted.ID, st.Status, st.Error)
	default:
		r.sojournMS = st.Report.SojournMS
	}
	return r
}

// timedGet fetches a path and returns how long the whole exchange took.
func timedGet(cl *http.Client, url string) (ms float64, body string, err error) {
	t0 := time.Now()
	resp, err := cl.Get(url)
	if err != nil {
		return 0, "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return ms, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return ms, "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return ms, string(data), nil
}

// closedRequests drives the server from conns clients, each sending its
// next request when the previous one is done, until stop reports true.
// It returns the completed count and the first failure.
func closedRequests(cl *http.Client, base string, conns int, stop func(n int) bool) (done int64, firstErr error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		good atomic.Int64
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop(n); n++ {
				if r := doRequest(cl, base, false, nil, 0, 0); r.err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = r.err
					}
					mu.Unlock()
					return
				}
				good.Add(1)
			}
		}()
	}
	wg.Wait()
	return good.Load(), firstErr
}

func runServeHTTP(sl slice) (outcome, error) {
	o := outcome{layer: map[string]float64{}}
	if sl.serveBin == "" {
		return o, fmt.Errorf("serve_http: no hermes-serve binary (-serve-bin)")
	}
	cl := newClient(serveConns)
	defer cl.CloseIdleConnections()
	warm := serveWarm
	if sl.small {
		warm = serveWarmSmall
	}

	// Set-up: start the child, wait for /healthz, and send the warm-up
	// requests, which open both connections and fill the pool's free
	// lists. Building the binary happened before the process started
	// and is not part of it.
	var child *serveChild
	err := timeSetups(sl.setups, &o, func() error {
		var err error
		if child, err = startServe(sl.serveBin); err != nil {
			return err
		}
		if _, err := closedRequests(cl, child.base, serveConns, func(n int) bool { return n >= warm }); err != nil {
			child.stop()
			return fmt.Errorf("serve_http warm-up: %w", err)
		}
		return nil
	}, func() {
		cl.CloseIdleConnections()
		child.stop()
	})
	if err != nil {
		return o, err
	}
	defer child.stop()

	due := schedule(sl.seed, serveRate, sl.seconds)
	type sample struct {
		lateMS, latMS, doneS float64
		res                  reqResult
	}
	samples := make([]sample, len(due))

	monitor := newClient(1)
	defer monitor.CloseIdleConnections()
	_, text, err := timedGet(monitor, child.base+"/metrics")
	if err != nil {
		return o, fmt.Errorf("serve_http: %w", err)
	}
	energy0 := metrics.ParseText(text)["hermes_energy_joules"]
	if _, err := procCPUSeconds(child.pid()); err != nil {
		return o, err
	}
	childCPU := func() float64 {
		s, _ := procCPUSeconds(child.pid())
		return s
	}

	rss := startRSSSampler(child.pid())
	defer rss.finish()
	cpu := startCPUTicker(childCPU, sl.seconds/serveSegments)
	defer cpu.finish()
	start := time.Now()
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		scrapeMS  []float64
		scrapeErr error
		stopMon   = make(chan struct{})
		monDone   = make(chan struct{})
	)
	go func() {
		defer close(monDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-tick.C:
				ms, _, err := timedGet(monitor, child.base+"/metrics")
				if err != nil {
					scrapeErr = err
					return
				}
				scrapeMS = append(scrapeMS, ms)
			}
		}
	}()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				dueAt := start.Add(time.Duration(due[i] * float64(time.Second)))
				sleepUntil(dueAt)
				op := sl.tr.op()
				root := sl.tr.beginAt("serve.request", 0, op, dueAt)
				late := time.Since(dueAt)
				res := doRequest(cl, child.base, i%5 == 4, sl.tr, root, op)
				end := time.Now()
				sl.tr.end(root)
				samples[i] = sample{
					lateMS: float64(late.Nanoseconds()) / 1e6,
					latMS:  float64(end.Sub(dueAt).Nanoseconds()) / 1e6,
					doneS:  end.Sub(start).Seconds(),
					res:    res,
				}
			}
		}()
	}
	wg.Wait()
	close(stopMon)
	<-monDone

	o.segs = cpu.segments(serveSegments, sl.seconds, time.Since(start).Seconds())
	o.rssMB = rss.mean()
	msEnd, text, err := timedGet(monitor, child.base+"/metrics")
	if err != nil {
		return o, fmt.Errorf("serve_http: %w", err)
	}
	if scrapeErr != nil {
		return o, fmt.Errorf("serve_http monitor: %w", scrapeErr)
	}
	scrapeMS = append(scrapeMS, msEnd)
	energy1 := metrics.ParseText(text)["hermes_energy_joules"]

	// Fold the requests: a segment's rate is its good requests over the
	// time from its scheduled start to its last completion.
	segLen := sl.seconds / serveSegments
	per := len(due) / serveSegments
	var (
		done, shed, missed    int
		submitMS, waitMS      []float64
		sojournMS, overheadMS []float64
		lateMS                []float64
	)
	o.attempted = len(samples)
	for k := range o.segs {
		seg, last := &o.segs[k], 0.0
		for _, s := range samples[k*per : (k+1)*per] {
			lateMS = append(lateMS, s.lateMS)
			if s.res.shed {
				shed++
			}
			if s.res.err != nil {
				o.failed++
				if o.failed <= 3 {
					o.violate("serve_http request: %v", s.res.err)
				}
				missed++
				continue
			}
			done++
			seg.latMS = append(seg.latMS, s.latMS)
			submitMS = append(submitMS, s.res.submitMS)
			waitMS = append(waitMS, s.res.waitMS)
			sojournMS = append(sojournMS, s.res.sojournMS)
			overheadMS = append(overheadMS, s.latMS-s.res.sojournMS)
			last = max(last, s.doneS)
			if s.latMS <= float64(serveSLO.Nanoseconds())/1e6 {
				seg.ops++
			} else {
				missed++
			}
		}
		seg.sec = last - float64(k)*segLen
	}
	if done == 0 {
		return o, fmt.Errorf("serve_http: no request completed:\n%s", child.log.String())
	}
	o.joules = (energy1 - energy0) / float64(done)

	o.layer["serve.submit_ms_p50"] = median(submitMS)
	o.layer["serve.wait_ms_p50"] = median(waitMS)
	o.layer["serve.job_sojourn_ms_p50"] = median(sojournMS)
	o.layer["serve.overhead_ms_p50"] = median(overheadMS)
	o.layer["serve.latency_p99_ms"] = percentile(o.latencies(), 0.99)
	o.layer["serve.slo_miss_frac"] = float64(missed) / float64(o.attempted)
	o.layer["serve.gen_late_ms_p50"] = median(lateMS)
	o.layer["serve.gen_late_ms_max"] = percentile(lateMS, 1)
	o.layer["serve.shed_429"] = float64(shed)
	o.layer["metrics.scrape_ms_p50"] = median(scrapeMS)

	// After a traced window: the two read endpoints a dashboard would
	// call, and how fast the same two connections can go flat out.
	if sl.tr != nil {
		// /capacity replays the server's ring of recent arrivals
		// through a Sim pool. The ring stamps an arrival's time before
		// it takes its lock, so two connections can record out of
		// order, and the replay then refuses the trace with a 500 (see
		// Findings in the README). One connection cannot: fill the ring
		// from one, then ask.
		if _, err := closedRequests(cl, child.base, 1, func(n int) bool { return n >= serveTraceCap }); err != nil {
			o.violate("serve_http ring fill: %v", err)
		}
		ms, _, err := timedGet(monitor, child.base+"/capacity?scale=1.5")
		if err != nil {
			o.violate("serve_http: %v", err)
		}
		o.layer["serve.capacity_ms"] = ms
		ms, _, err = timedGet(monitor, child.base+"/jobs?limit=100")
		if err != nil {
			o.violate("serve_http: %v", err)
		}
		o.layer["serve.index_ms"] = ms
		satS := serveSatS
		if sl.small {
			satS = 0.2
		}
		t0 := time.Now()
		n, err := closedRequests(cl, child.base, serveConns, func(int) bool { return time.Since(t0).Seconds() >= satS })
		if err != nil {
			o.violate("serve_http saturation probe: %v", err)
		}
		o.layer["serve.saturation_per_s"] = float64(n) / time.Since(t0).Seconds()
	}
	return o, nil
}
