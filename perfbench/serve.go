package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/expfmt"
	"repro/internal/profile"
	"repro/internal/synth"
)

const (
	// outstanding is how many jobs the closed loop keeps in flight, one
	// per lpserve worker.
	outstanding = 2
	// scrapeInterval is the open-loop scraper's period: /metrics is due
	// ten times a second whatever the server is doing.
	scrapeInterval = 100 * time.Millisecond
	// pollInterval is how often the closed loop reads /jobs to see its
	// jobs change status.
	pollInterval = 3 * time.Millisecond
)

// A session is one lpserve process serving one pass over the cells.
// Sessions are fixed-size because lpserve keeps every job it has run and
// /metrics renders all of them: a session that ran for as long as the
// run lasted would make scrape cost depend on how fast jobs went.
type session struct {
	setup   time.Duration // start to healthy, plus one warm job per model
	wall    time.Duration // first submit to last job settled
	jobs    []*jobRec
	scrapes []scrapeRec
	rssMB   float64
}

type jobRec struct {
	model, alloc          string
	submit, running, done time.Time // zero when never observed
	err                   error     // refused or failed
}

type scrapeRec struct {
	latency time.Duration // from when the scrape was due to its last byte
	body    []byte
	err     error
}

func runServe(o opts) (*outcome, error) {
	out := newOutcome()
	cfg := experimentConfig(o.seed)
	testEvents := map[string]int{}
	for _, m := range cfg.Models {
		n, err := m.CountEvents(cfg.GenConfig(synth.Test))
		if err != nil {
			return nil, err
		}
		testEvents[m.Name] = n
	}
	// A traced run leaves a fifth of its time to the in-process layers.
	limit := o.seconds
	if o.trace {
		limit -= o.seconds / 5
	}
	var sessions []*session
	for r := newRounds(limit); r.next(4); {
		s, err := runSession(o, cfg)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
	}

	var setups, walls, jobRates, eventRates, rss, lat, waits, runs, scrapeLat, scrapeBytes []float64
	for _, s := range sessions {
		setups = append(setups, s.setup.Seconds())
		walls = append(walls, s.wall.Seconds())
		rss = append(rss, s.rssMB)
		done, evs := 0, 0
		for _, j := range s.jobs {
			out.check(j.err)
			if !j.done.IsZero() {
				lat = append(lat, j.done.Sub(j.submit).Seconds())
			}
			if j.err != nil {
				continue
			}
			done++
			evs += testEvents[j.model]
			if !j.running.IsZero() {
				waits = append(waits, j.running.Sub(j.submit).Seconds())
				runs = append(runs, j.done.Sub(j.running).Seconds())
			}
		}
		jobRates = append(jobRates, float64(done)/s.wall.Seconds())
		eventRates = append(eventRates, float64(evs)/s.wall.Seconds())
		for _, sc := range s.scrapes {
			out.check(sc.err)
			scrapeLat = append(scrapeLat, float64(sc.latency)/float64(time.Millisecond))
			scrapeBytes = append(scrapeBytes, float64(len(sc.body)))
		}
	}
	fmt.Fprintf(os.Stderr, "serve: %d sessions, %d jobs, %d scrapes\n", len(sessions), len(lat), len(scrapeLat))
	if !o.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["wall_s"] = median(walls)
		out.metrics["jobs_per_s"] = median(jobRates)
		out.metrics["events_per_s"] = median(eventRates)
		out.metrics["job_latency_p50_s"] = median(lat)
		out.metrics["job_latency_p90_s"] = p90("job_latency", lat)
		out.metrics["peak_rss_mb"] = median(rss)
		return out, nil
	}
	m := out.metrics
	m["serve.queue_wait_p50_s"] = median(waits)
	m["serve.run_p50_s"] = median(runs)
	m["serve.scrape_bytes"] = median(scrapeBytes)
	m["serve.scrape_latency_p50_ms"] = median(scrapeLat)
	m["serve.scrape_latency_p90_ms"] = p90("scrape_latency", scrapeLat)
	m["serve.scrapes"] = float64(len(scrapeLat))
	return out, serveLayers(cfg, testEvents, out)
}

// runSession starts lpserve, warms it, runs the closed loop and the
// scraper side by side over one pass of the cells, and stops it.
func runSession(o opts, cfg core.Config) (*session, error) {
	t0 := time.Now()
	srv, err := startLpserve(o)
	if err != nil {
		return nil, err
	}
	s := &session{}
	jobs := newClient(srv.base)
	err = func() error {
		if err := jobs.waitHealthy(20 * time.Second); err != nil {
			return err
		}
		// One job per model trains its predictors, so the measured jobs
		// find them cached.
		var warm []*jobRec
		for _, m := range cfg.Models {
			warm = append(warm, &jobRec{model: m.Name, alloc: "firstfit"})
		}
		if err := jobs.closedLoop(warm, len(warm)); err != nil {
			return err
		}
		for _, j := range warm {
			if j.err != nil {
				return fmt.Errorf("warm job %s: %w", j.model, j.err)
			}
		}
		s.setup = time.Since(t0)

		for _, m := range cfg.Models {
			for _, a := range core.AllocatorNames {
				s.jobs = append(s.jobs, &jobRec{model: m.Name, alloc: a})
			}
		}
		scraper := newClient(srv.base)
		defer scraper.close()
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			s.scrapes = scraper.scrapeLoop(ctx, start)
		}()
		err := jobs.closedLoop(s.jobs, outstanding)
		s.wall = time.Since(start)
		cancel()
		wg.Wait()
		return err
	}()
	jobs.close()
	rss, stopErr := srv.stop()
	if err != nil {
		return nil, fmt.Errorf("%w\nlpserve stderr:\n%s", err, srv.stderr.String())
	}
	if stopErr != nil {
		return nil, stopErr
	}
	s.rssMB = rss
	for i := range s.scrapes {
		if s.scrapes[i].err == nil {
			s.scrapes[i].err = checkScrape(s.scrapes[i].body)
		}
	}
	return s, nil
}

// lpserve is one running server process.
type lpserve struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, once exited is closed
}

func startLpserve(o opts) (*lpserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &lpserve{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = dieWithParent(exec.Command(filepath.Join(o.bin, "lpserve"),
		"-addr", addr,
		"-workers", strconv.Itoa(o.workers),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-seed", strconv.FormatUint(o.seed, 10)))
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// stop drains the server with SIGINT, as an operator would, killing it
// if it has not exited in time, and returns its resident high-water mark.
func (s *lpserve) stop() (float64, error) {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return 0, fmt.Errorf("lpserve did not drain within 20s")
	}
	if s.err != nil {
		return 0, fmt.Errorf("lpserve: %w\n%s", s.err, s.stderr.String())
	}
	return childPeakRSSMB(s.cmd.ProcessState), nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client is one keep-alive connection to lpserve.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches a path, failing on any status but 200.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (c *client) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		_, err := c.get("/healthz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lpserve not healthy after %v: %w", limit, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submit posts one job and returns its id; a refusal is an error.
func (c *client) submit(model, alloc string) (int, error) {
	body := fmt.Sprintf(`{"model":%q,"allocator":%q,"predictor":"true"}`, model, alloc)
	resp, err := c.hc.Post(c.base+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("job %s/%s refused: status %d", model, alloc, resp.StatusCode)
	}
	return v.ID, nil
}

// closedLoop runs the jobs in order, keeping up to inflight of them
// submitted and not yet settled, and records the status changes it
// observes. A refused or failed job is recorded on its jobRec; only a
// broken connection is returned as an error.
func (c *client) closedLoop(jobs []*jobRec, inflight int) error {
	pending := map[int]*jobRec{}
	next := 0
	fill := func() {
		for next < len(jobs) && len(pending) < inflight {
			j := jobs[next]
			next++
			j.submit = time.Now()
			id, err := c.submit(j.model, j.alloc)
			if err != nil {
				j.err = err
				continue
			}
			pending[id] = j
		}
	}
	fill()
	for len(pending) > 0 {
		time.Sleep(pollInterval)
		body, err := c.get("/jobs")
		if err != nil {
			return err
		}
		var views []struct {
			ID     int    `json:"id"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(body, &views); err != nil {
			return fmt.Errorf("/jobs: %w", err)
		}
		now := time.Now()
		for _, v := range views {
			j := pending[v.ID]
			if j == nil {
				continue
			}
			switch v.Status {
			case "running":
				if j.running.IsZero() {
					j.running = now
				}
			case "done", "failed":
				j.done = now
				if v.Status == "failed" {
					j.err = fmt.Errorf("job %s/%s failed: %s", j.model, j.alloc, v.Error)
				}
				delete(pending, v.ID)
			}
		}
		fill()
	}
	return nil
}

// scrapeLoop reads /metrics every scrapeInterval from start until ctx
// ends. Each scrape is timed from when it was due, so a slow scrape
// makes the ones queued behind it late too.
func (c *client) scrapeLoop(ctx context.Context, start time.Time) []scrapeRec {
	var out []scrapeRec
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * scrapeInterval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return out
		}
		body, err := c.get("/metrics")
		out = append(out, scrapeRec{latency: time.Since(due), body: body, err: err})
	}
}

// checkScrape holds a /metrics body to expfmt's strict parser, requires
// it to re-render byte for byte, and requires every job it shows to
// carry its lp_heap_* families: served jobs always scan the heap.
func checkScrape(body []byte) error {
	fams, err := expfmt.Parse(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("scrape does not parse: %w", err)
	}
	var again bytes.Buffer
	if err := expfmt.WriteFamilies(&again, fams); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), body) {
		return errors.New("scrape does not re-render byte for byte")
	}
	jobs, heap := map[string]bool{}, map[string]bool{}
	for _, f := range fams {
		for _, m := range f.Metrics {
			if id, ok := m.Labels["job"]; ok {
				jobs[id] = true
				if strings.HasPrefix(f.Name, "lp_heap_") {
					heap[id] = true
				}
			}
		}
	}
	for id := range jobs {
		if !heap[id] {
			return fmt.Errorf("scrape shows job %s without its lp_heap_* families", id)
		}
	}
	return nil
}

// serveLayers replays every served cell in this process the way an
// lpserve worker does (Test events generated on the fly, true predictor,
// collector with heap scan), once fused through core.RunSimOracle and
// three times through the layered loop: unobserved, observed with the
// scan off, and observed with it on. Observation and scan costs are the
// differences between those loops.
func serveLayers(cfg core.Config, testEvents map[string]int, out *outcome) error {
	unobserved, scanOff, scanOn := newLayerSpans(), newLayerSpans(), newLayerSpans()
	var fused span
	var snaps []*obs.Snapshot
	var events int64
	failedBefore := out.failed
	for _, m := range cfg.Models {
		src, err := m.Source(cfg.GenConfig(synth.Train))
		if err != nil {
			return err
		}
		db, err := profile.TrainSource(src, cfg.Profile)
		if err != nil {
			return err
		}
		pred := db.Predictor()
		n := testEvents[m.Name]
		for _, a := range core.AllocatorNames {
			cell := core.MatrixJob{Model: m.Name, Allocator: a, Predictor: "true"}.String()
			newSource := func() (*synth.Source, profile.Oracle, error) {
				src, err := m.Source(cfg.GenConfig(synth.Test))
				if err != nil {
					return nil, nil, err
				}
				src.SetCount(n)
				return src, pred.NewMapper(src.Table()), nil
			}
			src, oracle, err := newSource()
			if err != nil {
				return err
			}
			alloc, err := core.NewAllocator(a)
			if err != nil {
				return err
			}
			t0 := time.Now()
			ref, err := core.RunSimOracle(src, alloc, oracle, obs.NewCollector(obs.Options{Label: cell, HeapScan: true}))
			fused.since(t0, int64(n))
			if err != nil {
				return fmt.Errorf("%s: %w", cell, err)
			}
			events += int64(n)
			bare := ref
			bare.Obs = nil

			if src, oracle, err = newSource(); err != nil {
				return err
			}
			res, err := replayLayered(src, a, oracle, unobserved)
			out.check(sameResult(cell+" unobserved", res, err, bare))

			for _, pass := range []struct {
				ls   *layerSpans
				scan bool
			}{{scanOff, false}, {scanOn, true}} {
				if src, oracle, err = newSource(); err != nil {
					return err
				}
				alloc, err := core.NewAllocator(a)
				if err != nil {
					return err
				}
				col := obs.NewCollector(obs.Options{Label: cell, HeapScan: pass.scan})
				rt := core.NewReplayTracker(col, alloc, n, oracle.ShortThreshold())
				res, err := replayBlocks(src, alloc, a, oracle, rt, pass.ls)
				if pass.scan {
					out.check(sameResult(cell+" observed", res, err, ref))
					snaps = append(snaps, res.Obs)
					continue
				}
				res.Obs = nil // the reference scanned the heap; compare the rest
				out.check(sameResult(cell+" observed without scan", res, err, bare))
			}
		}
	}
	// Unlike scrape failures these are not the known lpserve race: a
	// layered replay that disagrees with core.RunSimOracle fails the run.
	if out.failed > failedBefore {
		out.mismatch = true
	}

	m := out.metrics
	unobserved.report(m, 1)
	m["synth.generate.ns_per_event"] = unobserved.source.nsPer()
	m["core.replay.ns_per_event"] = fused.nsPer()
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }
	m["obs.observe.ns_per_event"] = perEvent(scanOff.observed.busy - unobserved.allocBusy())
	m["obs.scan.ns_per_event"] = perEvent(scanOn.observed.busy - scanOff.observed.busy)
	m["obs.finish.busy_s"] = scanOn.finish.seconds()
	layered := scanOn.source.busy + scanOn.predict.busy + scanOn.observed.busy + scanOn.finish.busy
	reconcile(out, layered, fused.busy)
	m["tracing.untraced_wall_s"] = fused.seconds()
	m["tracing.traced_wall_s"] = layered.Seconds()
	m["tracing.overhead_frac"] = layered.Seconds()/fused.seconds() - 1

	// Render the pass's final snapshots as one /metrics exposition, as
	// a scrape at the end of a session would.
	var renders []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sets := make([][]expfmt.Family, len(snaps))
		for j, s := range snaps {
			sets[j] = expfmt.Families(s, map[string]string{"job": strconv.Itoa(j + 1)})
		}
		fams, err := expfmt.Gather(sets...)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := expfmt.WriteFamilies(&buf, fams); err != nil {
			return err
		}
		renders = append(renders, float64(time.Since(t0))/float64(time.Millisecond))
	}
	m["obs.expfmt.render_ms"] = median(renders)
	return nil
}
