package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/arda-ml/arda/internal/obs"
)

// spanLog records the benchmark's own spans: one per call it makes into a
// layer's public function (discovery.Discover, core.Augment, an HTTP call to
// ardad, a ranker probe). Spans stay in memory and are written out as NDJSON
// when the run ends. A nil spanLog (untraced runs) records nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []spanRec
}

// spanRec is one finished span. Spans of one request share Trace; Parent is
// the ID of the span that caused it (0 for a request's root).
type spanRec struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	log   *spanLog
	rec   spanRec
	start time.Time
}

// start opens a span under parent (nil for a new request's root).
func (l *spanLog) start(parent *openSpan, name string) *openSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	now := time.Now()
	rec := spanRec{Trace: id, ID: id, Name: name, Start: now.Sub(l.t0).Nanoseconds()}
	if parent != nil {
		rec.Trace, rec.Parent = parent.rec.Trace, parent.rec.ID
	}
	return &openSpan{log: l, rec: rec, start: now}
}

// end closes the span and returns its duration.
func (s *openSpan) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.rec.End = now.Sub(s.log.t0).Nanoseconds()
	s.log.mu.Lock()
	s.log.spans = append(s.log.spans, s.rec)
	s.log.mu.Unlock()
	return now.Sub(s.start)
}

// write saves the spans as NDJSON under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if l == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// runLayers is one traced run's pipeline figures, read from the span tree
// and counters the pipeline already exposes: core.Result.Trace in-process,
// the /runs/{id}/events stream for ardad.
type runLayers struct {
	spans    map[string]time.Duration // summed by span name
	counters map[string]int64
	hists    map[string][2]int64 // count, sum in ns
}

func layersFromStats(rs *obs.RunStats) runLayers {
	l := runLayers{spans: rs.StageTotals(), counters: rs.Counters, hists: map[string][2]int64{}}
	for name, h := range rs.Histograms {
		l.hists[name] = [2]int64{h.Count, h.Sum}
	}
	return l
}

func layersFromEvents(evs []obs.Event) runLayers {
	l := runLayers{spans: map[string]time.Duration{}, counters: map[string]int64{}, hists: map[string][2]int64{}}
	for _, ev := range evs {
		switch ev.Type {
		case obs.EventSpan:
			l.spans[ev.Name] += time.Duration(ev.DurUS) * time.Microsecond
		case obs.EventCounter:
			l.counters[ev.Name] = ev.Value
		case obs.EventHist:
			l.hists[ev.Name] = [2]int64{ev.Value, ev.Attrs["sum_ns"]}
		}
	}
	return l
}

// layerTotals sums runLayers over a workload's traced runs. Per-layer
// metrics are reported per run (sums divided by runs); busy times of
// parallel work (RIFS repetitions, tree fits, subset scores) are summed
// over workers and can exceed the run's wall clock.
type layerTotals struct {
	runs       int
	latency    time.Duration // summed latency of the traced runs
	discover   time.Duration // summed discovery.Discover time
	candidates int
	spans      map[string]time.Duration
	counters   map[string]int64
	hists      map[string][2]int64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{spans: map[string]time.Duration{}, counters: map[string]int64{}, hists: map[string][2]int64{}}
}

func (t *layerTotals) add(l runLayers, latency, discover time.Duration, candidates int) {
	t.runs++
	t.latency += latency
	t.discover += discover
	t.candidates += candidates
	for k, v := range l.spans {
		t.spans[k] += v
	}
	for k, v := range l.counters {
		t.counters[k] += v
	}
	for k, v := range l.hists {
		h := t.hists[k]
		t.hists[k] = [2]int64{h[0] + v[0], h[1] + v[1]}
	}
}

func (t *layerTotals) perRun(v float64) float64 { return ratio(v, float64(t.runs)) }

func (t *layerTotals) spanS(name string) float64 { return t.perRun(t.spans[name].Seconds()) }

func (t *layerTotals) count(name string) float64 { return t.perRun(float64(t.counters[name])) }

func (t *layerTotals) hitRatio(hits, misses string) float64 {
	h, m := float64(t.counters[hits]), float64(t.counters[misses])
	return ratio(h, h+m)
}

// pipelineMetrics adds every per-layer metric read from the pipeline's own
// trace (and the benchmark's discovery span), and notes each stage's share
// of the traced runs' mean latency. The RIFS layers (repetitions, sweep,
// tree fits, subset scores) are read from rifs: t itself when the workload
// selects with RIFS, else a probe's totals.
func (t *layerTotals) pipelineMetrics(rep *report, rifs *layerTotals) {
	n := t.runs
	rep.add("discovery.discover_s", "s", t.perRun(t.discover.Seconds()), n)
	rep.add("discovery.candidates", "count", t.perRun(float64(t.candidates)), n)
	rep.add("dataframe.encode_cache_hit_ratio", "ratio", t.hitRatio("encode_cache.hits", "encode_cache.misses"), n)
	rep.add("coreset.coreset_s", "s", t.spanS("coreset"), n)
	rep.add("join.join_s", "s", t.spanS("join"), n)
	rep.add("join.impute_s", "s", t.spanS("impute"), n)
	rep.add("join.materialize_s", "s", t.spanS("materialize"), n)
	rep.add("join.rows_matched", "count", t.count("join.rows_matched"), n)
	rep.add("join.prep_cache_hit_ratio", "ratio", t.hitRatio("prep_cache.hits", "prep_cache.misses"), n)
	rep.add("join.quarantined", "count", t.count("quarantine.total"), n)
	rep.add("featsel.select_s", "s", t.spanS("select"), n)
	rep.add("featsel.kept_feature_ratio", "ratio",
		ratio(float64(t.counters["select.features_kept"]), float64(t.counters["select.features_offered"])), n)

	r := rifs.runs
	rep.add("featsel.rep_s", "s", rifs.spanS("select.rep"), r)
	rep.add("featsel.sweep_s", "s", rifs.spanS("select.sweep"), r)
	rep.add("featsel.reps_short_circuited", "count", rifs.count("select.reps_short_circuited"), r)
	fits := rifs.hists["select.tree_fit"]
	rep.add("ml.tree_fit_s", "s", rifs.perRun(float64(fits[1])/1e9), r)
	rep.add("ml.tree_fits", "count", rifs.perRun(float64(fits[0])), r)
	rep.add("ml.trees_scheduled", "count", rifs.count("select.trees_scheduled"), r)
	rep.add("ml.splitset_cache_hit_ratio", "ratio", rifs.hitRatio("select.splitset_cache_hits", "select.splitset_cache_misses"), r)
	scores := rifs.hists["select.subset_score"]
	rep.add("eval.subset_score_s", "s", rifs.perRun(float64(scores[1])/1e9), r)
	rep.add("eval.subset_scores", "count", rifs.perRun(float64(scores[0])), r)
	rep.add("eval.evaluate_s", "s", t.spanS("evaluate"), n)
	rep.add("checkpoint.saved", "count", t.count("checkpoint.saved"), n)
	rep.add("checkpoint.write_failures", "count", t.count("checkpoint.write_failures"), n)

	mean := t.perRun(t.latency.Seconds())
	shares := map[string]float64{"discovery": ratio(t.perRun(t.discover.Seconds()), mean)}
	for _, stage := range []string{"prefilter", "coreset", "join", "impute", "select", "materialize", "evaluate"} {
		shares[stage] = ratio(t.spanS(stage), mean)
	}
	rep.note("traced_latency_mean_s", mean)
	rep.note("latency_share", shares)
}

// probeTimings are the ranker and kernel probe results.
type probeTimings struct {
	rstar, forest, sparse, sparse21 time.Duration
	iterations                      int
	rows, cols                      int
}

func (p probeTimings) metrics(rep *report, reps int) {
	rep.add("featsel.rstar_s", "s", p.rstar.Seconds(), reps)
	rep.add("featsel.forest_rank_s", "s", p.forest.Seconds(), reps)
	rep.add("featsel.sparse_rank_s", "s", p.sparse.Seconds(), reps)
	rep.add("ml.sparse21_s", "s", p.sparse21.Seconds(), reps)
	rep.add("ml.sparse21_iterations", "count", float64(p.iterations), reps)
	rep.note("probe_dataset", map[string]int{"rows": p.rows, "cols": p.cols})
}

// serviceMetrics are the runqueue/server/lease figures: serve-light's own,
// or the service probe's for the in-process workloads.
type serviceMetrics struct {
	queueWait, exec, overhead, completionLag []float64
	admitMS, fetchMS                         []float64
	rejected, retries, renewals, lost        float64
}

func (s serviceMetrics) metrics(rep *report) {
	rep.add("runqueue.queue_wait_p50_s", "s", median(s.queueWait), len(s.queueWait))
	rep.add("runqueue.exec_p50_s", "s", median(s.exec), len(s.exec))
	rep.add("runqueue.run_overhead_s", "s", median(s.overhead), len(s.overhead))
	rep.add("runqueue.completion_lag_s", "s", median(s.completionLag), len(s.completionLag))
	rep.add("runqueue.rejected", "count", s.rejected, 1)
	rep.add("runqueue.retries", "count", s.retries, 1)
	rep.add("server.admit_p50_ms", "ms", median(s.admitMS), len(s.admitMS))
	rep.add("server.result_fetch_ms", "ms", median(s.fetchMS), len(s.fetchMS))
	rep.add("lease.renewals", "count", s.renewals, 1)
	rep.add("lease.lost", "count", s.lost, 1)
}
