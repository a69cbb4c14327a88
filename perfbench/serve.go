package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/arda-ml/arda"
	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/runqueue"
)

const (
	serveScale = 0.2
	serveSize  = 192
	// serveVariants is how many seed-derived variants of each corpus a run
	// covers, and specSeeds how many spec seeds each variant is submitted
	// with. What f-test keeps, and so a run's cost, depends on the corpus
	// variant far more than on the spec seed, so a run covers many variants
	// to average that out; the slowest few set the tail.
	serveVariants = 24
	specSeeds     = 1
	// rateBlock is the number of consecutive completions runs_per_s is
	// measured over before the median is taken: the clients submit the
	// specs in order, so a block covers four variants of each corpus.
	rateBlock = 12
	// clients is the number of closed-loop clients, one tenant each.
	clients = 2
	// queuedPoll is the retry interval for the event stream of a run that
	// is still queued, far below the ~0.2-0.3 s run latency. A late open
	// adds nothing to the measured latency: the stream replays the run's
	// history. Polling faster only takes processor time from the daemon.
	queuedPoll = 20 * time.Millisecond
	// finishPoll is the retry interval between the end of a run's event
	// stream and its record reaching a terminal state.
	finishPoll = time.Millisecond
	// rssRuns is the number of timed requests after which the daemon's
	// peak RSS is read. ardad's memory grows with the runs it has served,
	// so reading it at a fixed count keeps peak_rss_mb independent of
	// throughput; every run on the reference machine gets past it.
	rssRuns = 48
	// requestTimeout bounds one request from submit to result.
	requestTimeout = 120 * time.Second
	// startupSettle is how long a just-started daemon runs before the
	// benchmark stops it.
	startupSettle = 200 * time.Millisecond
	// daemonStarts is how many daemons a run starts to time set-up; a
	// start of a few milliseconds needs several for a steady median.
	daemonStarts = 9
)

var servePanel = []panelEntry{{schoolS, serveVariants}, {poverty, serveVariants}, {pickup, serveVariants}}

// serveSpec is one distinct submission and its in-process reference.
type serveSpec struct {
	corpus  int // index into the loaded corpora
	spec    runqueue.Spec
	ref     outcome
	verdict verdict
}

func runServeLight(cfg config) (*report, error) {
	if cfg.ardad == "" {
		return nil, fmt.Errorf("serve-light needs -ardad")
	}
	dataDir := filepath.Join(cfg.work, "data")
	set, err := setupPanel(dataDir, servePanel, cfg.seed, serveScale)
	if err != nil {
		return nil, err
	}
	specs, err := serveSpecs(set)
	if err != nil {
		return nil, err
	}

	// Set-up is generating the inputs, as in-process, plus daemon start until
	// /healthz answers; start daemonStarts daemons on fresh state
	// directories, each but the last drained at once.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	var starts []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		state := filepath.Join(cfg.work, fmt.Sprintf("state-%d", i))
		dd, took, err := startDaemon(hc, cfg.ardad, state, dataDir)
		if err != nil {
			return nil, err
		}
		starts = append(starts, took.Seconds())
		if i == daemonStarts-1 {
			d = dd
			break
		}
		// ardad answers /healthz before it installs its SIGTERM handler, so
		// a SIGTERM in that window kills it instead of draining it (about 1
		// in 100 immediate stops). Give it time to finish starting up.
		time.Sleep(startupSettle)
		if err := dd.stop(); err != nil {
			return nil, err
		}
	}
	defer d.kill()

	rep := &report{}
	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
	}
	cl := &client{hc: hc, base: "http://" + d.addr, log: log}

	// Warm-up: the first rateBlock specs once each, checked like every
	// other request.
	for _, s := range specs[:rateBlock] {
		r, err := cl.do(s.spec, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if !r.completed || !r.out.equal(s.ref) {
			return nil, fmt.Errorf("warm-up run on %s did not reproduce the reference (completed %v)", set[s.corpus].name, r.completed)
		}
	}

	results := make([][]reqResult, clients)
	errs := make([]error, clients)
	var (
		served  atomic.Int64
		rssOnce sync.Once
		rss     float64
		rssErr  error
		rssAt   int64
	)
	readRSS := func() {
		rssAt = served.Load()
		rss, rssErr = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < cfg.seconds; k++ {
				s := specs[(c+clients*k)%len(specs)]
				spec := s.spec
				spec.Tenant = fmt.Sprintf("client%d", c)
				r, err := cl.do(spec, cfg.trace && k%2 == 1)
				if err != nil {
					errs[c] = err
					return
				}
				r.spec = s
				r.done = time.Since(start)
				results[c] = append(results[c], r)
				if served.Add(1) == rssRuns {
					rssOnce.Do(readRSS)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	var metricsText string
	if cfg.trace {
		if metricsText, err = cl.get("/metrics"); err != nil {
			return nil, err
		}
	}
	rssOnce.Do(readRSS) // fewer than rssRuns requests: read it now
	if err := d.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	var latencies, done []float64
	for _, rs := range results {
		for _, r := range rs {
			rep.attempted++
			if !r.completed {
				rep.failed++
				continue
			}
			if !r.out.equal(r.spec.ref) {
				rep.mismatches = append(rep.mismatches, fmt.Sprintf("%s seed %d: got %v, reference %v",
					r.spec.spec.Base, r.spec.spec.Seed, r.out, r.spec.ref))
				continue
			}
			latencies = append(latencies, r.latency.Seconds())
			done = append(done, r.done.Seconds())
		}
	}
	rep.note("clients", clients)
	rep.note("distinct_specs", len(specs))

	var vs []verdict
	for _, s := range specs {
		vs = append(vs, s.verdict)
	}
	if !cfg.trace {
		// A daemon starts in a few milliseconds, and on a shared host that
		// alone drifts by a quarter between sets of runs of the same code;
		// the input generation it is added to is steadier work of the same
		// kind as the in-process set-ups.
		gen := panelSetup(set, func(l *loaded) time.Duration { return l.gen })
		rep.add("setup_s", "s", gen+median(starts), len(set)+len(starts))
		rep.note("daemon_start_s", median(starts))
		rate, blocks := blockRate(done, rateBlock, wall.Seconds())
		rep.add("runs_per_s", "1/s", rate, len(done))
		rep.note("rate_blocks", blocks)
		latencyStats(rep, latencies)
		rep.add("score_lift", "score", scoreLift(vs), len(vs))
		keptTableRecall(rep, vs)
		rep.add("peak_rss_mb", "MB", rss, 1)
		rep.note("peak_rss_after_requests", rssAt)
		return rep, nil
	}
	qualityLayers(rep, vs)
	return rep, serveLayers(rep, cfg, set, results, metricsText, log)
}

// blockRate is the completion rate of a timed window, as the median over
// blocks of m consecutive completions (done holds completion times from the
// window's start): a stall that lasts less than half the window moves it
// little. With fewer than m completions it is the whole window's rate. It
// also returns the number of blocks.
func blockRate(done []float64, m int, wall float64) (float64, int) {
	t := append([]float64(nil), done...)
	sort.Float64s(t)
	if len(t) < m {
		return ratio(float64(len(t)), wall), 0
	}
	var rates []float64
	prev := 0.0
	for end := m - 1; end < len(t); end += m {
		rates = append(rates, ratio(float64(m), t[end]-prev))
		prev = t[end]
	}
	return median(rates), len(rates)
}

// serveSpecs builds every distinct spec — each corpus variant at specSeeds
// seeds — and computes its reference in-process from the same CSV directory
// with the options ardad derives from the spec.
func serveSpecs(set []*loaded) ([]serveSpec, error) {
	var out []serveSpec
	for i, c := range set {
		for k := 0; k < specSeeds; k++ {
			spec := runqueue.Spec{
				Dir:      c.dir,
				Base:     c.base.Name(),
				Target:   c.target,
				Selector: string(featsel.MethodFTest),
				Size:     serveSize,
				Seed:     c.seed*specSeeds + int64(k) + 1,
			}
			sel, err := featsel.New(featsel.MethodFTest)
			if err != nil {
				return nil, err
			}
			cands := discovery.Discover(c.base, c.repo, c.target, discovery.Options{})
			res, err := core.Augment(c.base, cands, core.Options{
				Target: c.target, Seed: spec.Seed, Selector: sel, CoresetSize: serveSize,
			})
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", c.name, err)
			}
			v := verdict{kept: res.KeptTables, relevant: c.relevant, lift: res.FinalScore - res.BaseScore}
			for _, cand := range cands {
				v.found = append(v.found, cand.Table.Name())
			}
			out = append(out, serveSpec{corpus: i, spec: spec, ref: outcomeOf(res), verdict: v})
		}
	}
	return out, nil
}

// serveLayers adds the per-layer metrics of a traced serve-light run: the
// pipeline layers from the traced requests' event streams, the queue and
// server timings from the run records, the lease and retry counters from
// /metrics, and CSV-load and discovery times sized in-process on the same
// directories (ardad runs both outside its per-run trace).
func serveLayers(rep *report, cfg config, set []*loaded, results [][]reqResult, metricsText string, log *spanLog) error {
	discoverS := make([]time.Duration, len(set))
	candidates := make([]int, len(set))
	var loads []float64
	for i, c := range set {
		var l, dsc []float64
		for k := 0; k < probeReps; k++ {
			sp := log.start(nil, "arda.LoadCSVDir")
			t0 := time.Now()
			if _, err := arda.LoadCSVDir(c.dir); err != nil {
				return err
			}
			l = append(l, time.Since(t0).Seconds())
			sp.end()
			sp = log.start(nil, "discovery.Discover")
			t0 = time.Now()
			candidates[i] = len(discovery.Discover(c.base, c.repo, c.target, discovery.Options{}))
			dsc = append(dsc, time.Since(t0).Seconds())
			sp.end()
		}
		discoverS[i] = time.Duration(median(dsc) * float64(time.Second))
		loads = append(loads, median(l))
	}

	totals := newLayerTotals()
	var tracedSum, untracedSum time.Duration
	var tracedN, untracedN int
	for _, rs := range results {
		for _, r := range rs {
			if !r.completed {
				continue
			}
			if !r.traced {
				untracedSum += r.latency
				untracedN++
				continue
			}
			tracedSum += r.latency
			tracedN++
			i := r.spec.corpus
			totals.add(layersFromEvents(r.events), r.latency, discoverS[i], candidates[i])
		}
	}
	svc := serviceLayers(results, metricsText)

	pov, err := probeCorpus(set)
	if err != nil {
		return err
	}
	rifs, err := probeRIFS(pov, log)
	if err != nil {
		return err
	}
	totals.pipelineMetrics(rep, rifs)
	rep.add("dataframe.csv_load_s", "s", median(loads), probeReps*len(set))
	probe, err := probeRankers(pov, cfg.seed, log)
	if err != nil {
		return err
	}
	probe.metrics(rep, probeReps)
	svc.metrics(rep)
	rep.add("obs.trace_overhead_ratio", "ratio",
		ratio(ratio(tracedSum.Seconds(), float64(tracedN)), ratio(untracedSum.Seconds(), float64(untracedN))), tracedN+untracedN)
	path, err := log.write(cfg.traceDir, fmt.Sprintf("%s-%d.spans.ndjson", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	rep.note("spans_file", path)
	// Service-side shares of request latency, next to the pipeline stages'.
	meanLat := totals.perRun(totals.latency.Seconds())
	rep.note("service_share", map[string]float64{
		"queue_wait": ratio(mean(svc.queueWait), meanLat),
		"exec":       ratio(mean(svc.exec), meanLat),
		"csv_load":   ratio(mean(loads), meanLat),
	})
	return nil
}

// serviceLayers reads the runqueue and server figures: admission round
// trips from every request, the rest from the completed traced requests'
// run records, and the rejection, retry and lease counters from the
// daemon's /metrics page.
func serviceLayers(results [][]reqResult, metricsText string) serviceMetrics {
	var svc serviceMetrics
	for _, rs := range results {
		for _, r := range rs {
			svc.admitMS = append(svc.admitMS, float64(r.admit.Microseconds())/1000)
			if !r.completed || !r.traced {
				continue
			}
			exec := r.rec.FinishedAt.Sub(r.rec.StartedAt).Seconds()
			svc.queueWait = append(svc.queueWait, r.rec.StartedAt.Sub(r.rec.SubmittedAt).Seconds())
			svc.exec = append(svc.exec, exec)
			svc.overhead = append(svc.overhead, exec-float64(r.rec.Result.ElapsedMS)/1000)
			svc.completionLag = append(svc.completionLag, r.lag.Seconds())
			svc.fetchMS = append(svc.fetchMS, float64(r.fetch.Microseconds())/1000)
		}
	}
	counters := parseExposition(metricsText)
	svc.rejected = counters["arda_queue_rejected_full"] + counters["arda_queue_rejected_draining"] + counters["arda_queue_rejected_tenant"]
	svc.retries = counters["arda_queue_run_retries"]
	svc.renewals = counters["arda_lease_renewals"]
	svc.lost = counters["arda_lease_lost"]
	return svc
}

// probeService sizes the runqueue, server and lease layers for an
// in-process workload, whose own path never reaches them: it starts ardad
// like serve-light does, over the directory holding corpus c, and submits
// each of c's serve-light specs probeReps times from one closed-loop
// client, traced. Every result must reproduce its in-process reference.
func probeService(cfg config, c *loaded, log *spanLog) (serviceMetrics, error) {
	if cfg.ardad == "" {
		return serviceMetrics{}, fmt.Errorf("the service probe needs -ardad")
	}
	specs, err := serveSpecs([]*loaded{c})
	if err != nil {
		return serviceMetrics{}, err
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	d, _, err := startDaemon(hc, cfg.ardad, filepath.Join(cfg.work, "probe-state"), filepath.Dir(specs[0].spec.Dir))
	if err != nil {
		return serviceMetrics{}, err
	}
	defer d.kill()
	cl := &client{hc: hc, base: "http://" + d.addr, log: log}
	var results []reqResult
	for k := 0; k < probeReps; k++ {
		for _, s := range specs {
			r, err := cl.do(s.spec, true)
			if err != nil {
				return serviceMetrics{}, fmt.Errorf("service probe: %w", err)
			}
			if !r.completed || !r.out.equal(s.ref) {
				return serviceMetrics{}, fmt.Errorf("service probe on %s did not reproduce the reference (completed %v)", c.name, r.completed)
			}
			results = append(results, r)
		}
	}
	metricsText, err := cl.get("/metrics")
	if err != nil {
		return serviceMetrics{}, err
	}
	if err := d.stop(); err != nil {
		return serviceMetrics{}, err
	}
	return serviceLayers([][]reqResult{results}, metricsText), nil
}

// parseExposition reads the scalar samples of a Prometheus text page.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// client is one closed-loop submitter's view of the daemon.
type client struct {
	hc   *http.Client
	base string
	log  *spanLog
}

// reqResult is one request's outcome and timings.
type reqResult struct {
	spec      serveSpec
	completed bool
	traced    bool
	out       outcome
	latency   time.Duration // POST until the result is read
	done      time.Duration // from the timed window's start until the result is read
	admit     time.Duration // the POST /runs round trip
	fetch     time.Duration // the GET /result round trip
	lag       time.Duration // end of the event stream until the result is read
	events    []obs.Event   // traced requests only
	rec       runqueue.Record
}

// do submits spec and waits for its result: it follows the run's event
// stream until the trace finishes, polls the record until the run is
// terminal, then fetches /result. A refused submit (429/503) or a failed
// or canceled run is a failed request, not an error.
func (cl *client) do(spec runqueue.Spec, traced bool) (reqResult, error) {
	r := reqResult{traced: traced}
	body, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	var log *spanLog
	if traced {
		log = cl.log
	}
	start := time.Now()
	deadline := start.Add(requestTimeout)
	root := log.start(nil, "request/"+spec.Base)

	sp := log.start(root, "POST /runs")
	resp, err := cl.hc.Post(cl.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	var rec runqueue.Record
	status := resp.StatusCode
	if status == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&rec)
	}
	drain(resp)
	r.admit = time.Since(start)
	sp.end()
	if err != nil {
		return r, fmt.Errorf("decoding submit response: %w", err)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		root.end()
		return r, nil
	}
	if status != http.StatusAccepted {
		return r, fmt.Errorf("submit: HTTP %d", status)
	}
	id := rec.ID

	sp = log.start(root, "GET /runs/{id}/events")
	for {
		resp, err := cl.hc.Get(cl.base + "/runs/" + id + "/events")
		if err != nil {
			return r, err
		}
		if resp.StatusCode == http.StatusNotFound {
			// Still queued: the stream opens when the run starts.
			drain(resp)
			if time.Now().After(deadline) {
				return r, fmt.Errorf("run %s never started", id)
			}
			time.Sleep(queuedPoll)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			drain(resp)
			return r, fmt.Errorf("events for %s: HTTP %d", id, resp.StatusCode)
		}
		if traced {
			dec := json.NewDecoder(resp.Body)
			for {
				var ev obs.Event
				if err := dec.Decode(&ev); err == io.EOF {
					break
				} else if err != nil {
					drain(resp)
					return r, fmt.Errorf("events for %s: %w", id, err)
				}
				r.events = append(r.events, ev)
			}
		}
		drain(resp)
		break
	}
	sp.end()
	eof := time.Now()

	sp = log.start(root, "GET /runs/{id}")
	for {
		if err := cl.getJSON("/runs/"+id, &rec); err != nil {
			return r, err
		}
		if rec.State == runqueue.StateCompleted || rec.State == runqueue.StateFailed || rec.State == runqueue.StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("run %s did not finish", id)
		}
		time.Sleep(finishPoll)
	}
	sp.end()
	r.rec = rec
	if rec.State != runqueue.StateCompleted {
		root.end()
		return r, nil
	}

	sp = log.start(root, "GET /runs/{id}/result")
	t0 := time.Now()
	var res runqueue.RunResult
	if err := cl.getJSON("/runs/"+id+"/result", &res); err != nil {
		return r, err
	}
	now := time.Now()
	sp.end()
	root.end()
	r.fetch = now.Sub(t0)
	r.latency = now.Sub(start)
	r.lag = now.Sub(eof)
	r.completed = true
	r.out = outcome{
		digest:      res.TableDigest,
		base:        math.Float64bits(res.BaseScore),
		final:       math.Float64bits(res.FinalScore),
		keptColumns: res.KeptColumns,
		keptTables:  res.KeptTables,
	}
	return r, nil
}

func (cl *client) getJSON(path string, v any) error {
	resp, err := cl.hc.Get(cl.base + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (cl *client) get(path string) (string, error) {
	resp, err := cl.hc.Get(cl.base + path)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// drain reads the rest of a response body and closes it, so the
// connection goes back to the pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// daemon is one ardad process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	mu      sync.Mutex
	stderr  []string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

var servingRE = regexp.MustCompile(`serving on http://(\S+) `)

// startDaemon starts ardad on a loopback port chosen by the kernel, with a
// fresh state directory, default flags (lease mode) and -concurrency 1. It
// returns once /healthz answers, with the time that took.
func startDaemon(hc *http.Client, bin, state, data string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", state, "-dir", data, "-concurrency", "1")
	// The daemon dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ardad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		found := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr = append(d.stderr, line)
			d.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addrc <- m[1]
			}
		}
		// Wait only after stderr is fully read (os/exec's rule for pipes).
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.exited:
		return nil, 0, fmt.Errorf("ardad exited before serving: %v\n%s", d.waitErr, d.log())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("ardad printed no serving address within 30s")
	}
	for {
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			drain(resp)
			if ok {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("ardad /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.stderr, "\n")
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within a
// minute.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling ardad: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("ardad did not drain within a minute:\n%s", d.log())
	}
	if d.waitErr != nil {
		return fmt.Errorf("ardad drain exit: %v\n%s", d.waitErr, d.log())
	}
	return nil
}

// kill stops the daemon if it is still running and waits for it to exit.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // it may exit on its own meanwhile; Wait settles it
	<-d.exited
}
