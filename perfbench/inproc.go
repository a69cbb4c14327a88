package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/arda-ml/arda"
	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/synth"
)

// minPasses is the fewest timed passes over a workload's corpora. The
// first execution of each corpus is its reference and every later one must
// reproduce it.
const minPasses = 2

// probeReps is how many times each ranker/kernel probe call is timed.
const probeReps = 3

type corpusSpec struct {
	name string
	gen  func(synth.Config) *synth.Corpus
}

var (
	taxi    = corpusSpec{"taxi", synth.Taxi}
	pickup  = corpusSpec{"pickup", synth.Pickup}
	poverty = corpusSpec{"poverty", synth.Poverty}
	schoolS = corpusSpec{"school-s", synth.SchoolS}
	schoolL = corpusSpec{"school-l", synth.SchoolL}
)

// loaded is one corpus as the program sees it: its CSV directory loaded
// back through arda.LoadCSVDir, plus the generator's ground truth.
type loaded struct {
	name, target string
	seed         int64 // the corpus generation seed
	dir          string
	base         *dataframe.Table
	repo         []*dataframe.Table
	relevant     map[string]bool
	// gen and load time generating the corpus and arda.LoadCSVDir on its
	// directory.
	gen, load time.Duration
}

// panelEntry is one corpus of a workload and how many seed-derived
// variants of it a run covers; more variants average out what the data
// does to run time.
type panelEntry struct {
	corpusSpec
	variants int
}

// variantSeed is the corpus seed of variant j of a corpus with the given
// variant count: each run seed draws its own disjoint panel.
func variantSeed(seed int64, variants, j int) int64 { return seed*int64(variants) + int64(j) }

// setupCorpora generates variant j of every panel corpus that has one,
// writes each as a CSV directory under dir, and loads it back, timing
// generation and loading. Writing the CSV files is how the benchmark hands
// the program its inputs, not work the program does, so it is not timed.
func setupCorpora(panel []panelEntry, j int, seed int64, scale float64, dir string) ([]*loaded, error) {
	var out []*loaded
	for _, e := range panel {
		if j >= e.variants {
			continue
		}
		spec, seed := e.corpusSpec, variantSeed(seed, e.variants, j)
		t0 := time.Now()
		c := spec.gen(synth.Config{Seed: seed, Scale: scale})
		gen := time.Since(t0)
		d := filepath.Join(dir, spec.name)
		if err := writeCorpus(c, d); err != nil {
			return nil, err
		}
		t0 = time.Now()
		tables, err := arda.LoadCSVDir(d)
		load := time.Since(t0)
		if err != nil {
			return nil, err
		}
		l := &loaded{name: spec.name, target: c.Target, seed: seed, dir: d, relevant: c.RelevantTables, gen: gen, load: load}
		for _, t := range tables {
			if t.Name() == c.Base.Name() {
				l.base = t
			} else {
				l.repo = append(l.repo, t)
			}
		}
		if l.base == nil {
			return nil, fmt.Errorf("base table %s missing from %s", c.Base.Name(), d)
		}
		out = append(out, l)
	}
	return out, nil
}

// writeCorpus writes each table of c as a CSV file in dir. The files are
// scratch inputs, so they are written plainly, without the program's
// fsync-per-file atomic writes.
func writeCorpus(c *synth.Corpus, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range append([]*dataframe.Table{c.Base}, c.Repo...) {
		f, err := os.Create(filepath.Join(dir, t.Name()+".csv"))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		err = t.WriteCSV(w)
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// setupPanel sets up every corpus variant of the run under root, variant
// by variant.
func setupPanel(root string, panel []panelEntry, seed int64, scale float64) ([]*loaded, error) {
	most := 0
	for _, e := range panel {
		most = max(most, e.variants)
	}
	var items []*loaded
	for j := 0; j < most; j++ {
		// Every set-up starts from a collected heap, so it does not pay for
		// the garbage of the one before.
		runtime.GC()
		set, err := setupCorpora(panel, j, seed, scale, filepath.Join(root, fmt.Sprintf("v%d", j)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		items = append(items, set...)
	}
	return items, nil
}

// panelSetup is the set-up time of one variant of every corpus in items:
// the sum over the corpora of the median of part over each corpus's
// variants. The variants of a corpus do alike work, so the median passes
// over one the host disturbed.
func panelSetup(items []*loaded, part func(*loaded) time.Duration) float64 {
	var names []string
	byCorpus := make(map[string][]float64)
	for _, l := range items {
		if byCorpus[l.name] == nil {
			names = append(names, l.name)
		}
		byCorpus[l.name] = append(byCorpus[l.name], part(l).Seconds())
	}
	var sum float64
	for _, n := range names {
		sum += median(byCorpus[n])
	}
	return sum
}

// medianLoad is the median arda.LoadCSVDir time over the corpora in items.
func medianLoad(items []*loaded) float64 {
	var loads []float64
	for _, l := range items {
		loads = append(loads, l.load.Seconds())
	}
	return median(loads)
}

// outcome is the part of a result the correctness gate compares.
type outcome struct {
	digest      string
	base, final uint64 // score bits
	keptColumns []string
	keptTables  []string
}

func (o outcome) equal(p outcome) bool {
	return o.digest == p.digest && o.base == p.base && o.final == p.final &&
		slices.Equal(o.keptColumns, p.keptColumns) && slices.Equal(o.keptTables, p.keptTables)
}

func (o outcome) String() string {
	return fmt.Sprintf("digest %s base %x final %x kept %v", o.digest, o.base, o.final, o.keptColumns)
}

func outcomeOf(res *core.Result) outcome {
	return outcome{
		digest:      fmt.Sprintf("%016x", res.Table.Digest()),
		base:        math.Float64bits(res.BaseScore),
		final:       math.Float64bits(res.FinalScore),
		keptColumns: res.KeptColumns,
		keptTables:  res.KeptTables,
	}
}

// verdict is one (corpus, spec) reference result next to the corpus's
// planted ground truth: the input of the quality figures.
type verdict struct {
	kept, found []string // tables kept by selection, proposed by discovery
	relevant    map[string]bool
	lift        float64 // FinalScore - BaseScore
}

// hits counts the distinct relevant tables among tables.
func hits(tables []string, relevant map[string]bool) float64 {
	seen := make(map[string]bool)
	for _, t := range tables {
		if relevant[t] {
			seen[t] = true
		}
	}
	return float64(len(seen))
}

// scoreLift is the mean of FinalScore - BaseScore over the verdicts.
func scoreLift(vs []verdict) float64 {
	var lift []float64
	for _, v := range vs {
		lift = append(lift, v.lift)
	}
	return mean(lift)
}

// keptTableRecall adds the share of the planted relevant tables that the
// selection kept, averaged over the (corpus, spec) pairs so every
// augmentation weighs the same.
func keptTableRecall(rep *report, vs []verdict) {
	var rec []float64
	for _, v := range vs {
		rec = append(rec, ratio(hits(v.kept, v.relevant), float64(len(v.relevant))))
	}
	rep.add("kept_table_recall", "ratio", mean(rec), len(rec))
}

// qualityLayers adds the kept tables' precision and discovery's recall of
// the planted relevant tables, each averaged over the (corpus, spec) pairs.
// An augmentation that kept no table has no precision and is left out of it.
func qualityLayers(rep *report, vs []verdict) {
	var prec, found []float64
	for _, v := range vs {
		if len(v.kept) > 0 {
			prec = append(prec, hits(v.kept, v.relevant)/float64(len(v.kept)))
		}
		found = append(found, ratio(hits(v.found, v.relevant), float64(len(v.relevant))))
	}
	rep.add("featsel.kept_table_precision", "ratio", mean(prec), len(prec))
	rep.add("discovery.relevant_recall", "ratio", mean(found), len(found))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// inprocWorkload runs discovery.Discover then core.Augment over each corpus
// in turn, in this process, one run at a time.
type inprocWorkload struct {
	panel   []panelEntry
	scale   float64
	options func(target string, seed int64) (core.Options, error)
	// rifs is set when options leaves the selector at its default, RIFS;
	// otherwise a probe sizes the RIFS layers.
	rifs bool
}

// paperDefaults sets only Target and Seed: RIFS with K=10 and the default
// estimator, as arda and ardad run by default.
func paperDefaults(target string, seed int64) (core.Options, error) {
	return core.Options{Target: target, Seed: seed}, nil
}

func runAugmentRIFS(cfg config) (*report, error) {
	return inprocWorkload{
		// school-l, the slowest corpus, sets the tail; three variants of it
		// make the tail the middle one rather than the faster of two. Four
		// of school-s, the fastest, put the median inside the taxi and
		// pickup variants rather than at their edge next to poverty.
		panel:   []panelEntry{{taxi, 2}, {pickup, 2}, {poverty, 2}, {schoolS, 4}, {schoolL, 3}},
		scale:   0.12,
		options: paperDefaults,
		rifs:    true,
	}.run(cfg)
}

func runDiscoverJoin(cfg config) (*report, error) {
	return inprocWorkload{
		// school-l, the discovery-heavy corpus, is five of every seven runs,
		// so the median and the tail average over several of its variants.
		panel: []panelEntry{{taxi, 1}, {poverty, 1}, {schoolL, 5}},
		scale: 1.0,
		options: func(target string, seed int64) (core.Options, error) {
			sel, err := featsel.New(featsel.MethodFTest)
			if err != nil {
				return core.Options{}, err
			}
			return core.Options{Target: target, Seed: seed, Selector: sel, Plan: core.FullMaterialization}, nil
		},
	}.run(cfg)
}

// runResult is one Discover+Augment run.
type runResult struct {
	out        outcome
	found      []string  // tables discovery proposed
	layers     runLayers // traced runs only
	latency    time.Duration
	discover   time.Duration
	candidates int
	lift       float64
}

// once runs Discover then Augment on c, with the corpus seed as the spec
// seed; with log set it traces the run.
func (w inprocWorkload) once(c *loaded, log *spanLog) (runResult, error) {
	opts, err := w.options(c.target, c.seed)
	if err != nil {
		return runResult{}, err
	}
	if log != nil {
		opts.Trace = obs.New("augment")
	}
	start := time.Now()
	root := log.start(nil, "run/"+c.name)
	sp := log.start(root, "discovery.Discover")
	cands := discovery.Discover(c.base, c.repo, c.target, discovery.Options{})
	sp.end()
	discover := time.Since(start)
	sp = log.start(root, "core.Augment")
	res, err := core.Augment(c.base, cands, opts)
	sp.end()
	root.end()
	latency := time.Since(start)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", c.name, err)
	}
	r := runResult{
		out:        outcomeOf(res),
		latency:    latency,
		discover:   discover,
		candidates: len(cands),
		lift:       res.FinalScore - res.BaseScore,
	}
	for _, cand := range cands {
		r.found = append(r.found, cand.Table.Name())
	}
	if res.Trace != nil {
		r.layers = layersFromStats(res.Trace)
	}
	return r, nil
}

func (w inprocWorkload) run(cfg config) (*report, error) {
	items, err := setupPanel(filepath.Join(cfg.work, "data"), w.panel, cfg.seed, w.scale)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
	}

	// Each item's first execution is its reference; the untimed warm-up
	// run of the first item fills the heap and page cache.
	refs := make([]*runResult, len(items))
	check := func(i int, r runResult, err error) bool {
		rep.attempted++
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: run failed: %v\n", err)
			return false
		}
		if refs[i] == nil {
			refs[i] = &r
			return true
		}
		if !r.out.equal(refs[i].out) {
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("%s (seed %d): got %v, reference %v",
				items[i].name, items[i].seed, r.out, refs[i].out))
			return false
		}
		return true
	}
	r, err := w.once(items[0], nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	refs[0] = &r

	totals := newLayerTotals()
	var untracedSum, tracedSum time.Duration
	perItem := make([][]float64, len(items)) // untraced latencies
	need := minPasses
	if cfg.trace {
		need = 1 // a traced pass runs every item twice
	}
	// Once the budget is spent after the fewest passes, the run stops
	// before the next item rather than at the end of a pass.
	start := time.Now()
	spent := func(passes int) bool { return passes >= need && time.Since(start) >= cfg.seconds }
	passes := 0
	for ; !spent(passes); passes++ {
		for i, c := range items {
			if spent(passes) {
				break
			}
			if !cfg.trace {
				r, err := w.once(c, nil)
				if check(i, r, err) {
					perItem[i] = append(perItem[i], r.latency.Seconds())
				}
				continue
			}
			// A traced run pairs each traced execution with an untraced one,
			// alternating which goes first, to measure the tracing overhead.
			for k := 0; k < 2; k++ {
				traced := (passes+i+k)%2 == 1
				var l *spanLog
				if traced {
					l = log
				}
				r, err := w.once(c, l)
				if !check(i, r, err) {
					continue
				}
				if traced {
					tracedSum += r.latency
					totals.add(r.layers, r.latency, r.discover, r.candidates)
				} else {
					untracedSum += r.latency
				}
			}
		}
	}
	rep.note("passes", passes)
	rep.note("items", len(items))

	var vs []verdict
	for i, c := range items {
		if refs[i] != nil {
			vs = append(vs, verdict{kept: refs[i].out.keptTables, found: refs[i].found, relevant: c.relevant, lift: refs[i].lift})
		}
	}
	if !cfg.trace {
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		rep.add("setup_s", "s", panelSetup(items, func(l *loaded) time.Duration { return l.gen + l.load }), len(items))
		// Each item counts once, at its median latency over the run's
		// repetitions: one slow repetition moves no figure, and every
		// corpus variant weighs the same whatever its run time.
		var medians []float64
		var pass float64
		byCorpus := make(map[string][]float64)
		for i, l := range perItem {
			if len(l) == 0 {
				continue
			}
			m := median(l)
			medians = append(medians, m)
			pass += m
			byCorpus[items[i].name] = append(byCorpus[items[i].name], m)
		}
		rep.add("runs_per_s", "1/s", ratio(float64(len(medians)), pass), len(medians))
		latencyStats(rep, medians)
		rep.add("score_lift", "score", scoreLift(vs), len(vs))
		keptTableRecall(rep, vs)
		rep.add("peak_rss_mb", "MB", rss, 1)
		corpusMedians := make(map[string]float64, len(byCorpus))
		for name, ms := range byCorpus {
			corpusMedians[name] = median(ms)
		}
		rep.note("latency_p50_by_corpus_s", corpusMedians)
		rep.note("executions", rep.attempted)
		return rep, nil
	}

	pov, err := probeCorpus(items)
	if err != nil {
		return nil, err
	}
	rifs := totals
	if !w.rifs {
		if rifs, err = probeRIFS(pov, log); err != nil {
			return nil, err
		}
	}
	totals.pipelineMetrics(rep, rifs)
	qualityLayers(rep, vs)
	rep.add("dataframe.csv_load_s", "s", medianLoad(items), len(items))
	probe, err := probeRankers(pov, cfg.seed, log)
	if err != nil {
		return nil, err
	}
	probe.metrics(rep, probeReps)
	svc, err := probeService(cfg, pov, log)
	if err != nil {
		return nil, err
	}
	svc.metrics(rep)
	rep.add("obs.trace_overhead_ratio", "ratio", ratio(tracedSum.Seconds(), untracedSum.Seconds()), totals.runs)
	path, err := log.write(cfg.traceDir, fmt.Sprintf("%s-%d.spans.ndjson", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	rep.note("spans_file", path)
	return rep, nil
}

// probeCorpus picks the corpus the layer probes run on: poverty, which
// every workload covers.
func probeCorpus(set []*loaded) (*loaded, error) {
	for _, c := range set {
		if c.name == poverty.name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("probe: workload has no poverty corpus")
}

// probeRIFS sizes the RIFS layers (repetitions, threshold sweep, tree fits,
// subset scores) for a workload whose own selector is not RIFS: one traced
// Discover+Augment on c with paper defaults.
func probeRIFS(c *loaded, log *spanLog) (*layerTotals, error) {
	r, err := inprocWorkload{options: paperDefaults}.once(c, log)
	if err != nil {
		return nil, fmt.Errorf("RIFS probe: %w", err)
	}
	t := newLayerTotals()
	t.add(r.layers, r.latency, r.discover, r.candidates)
	return t, nil
}

// probeRankers times the selection rankers and the ℓ2,1 kernel on a
// batch-shaped dataset: corpus c fully materialized with every candidate
// feature kept, cut to a coreset-sized row sample and at most as many
// feature columns as rows (the default per-batch budget).
func probeRankers(c *loaded, seed int64, log *spanLog) (probeTimings, error) {
	all, err := featsel.New(featsel.MethodAll)
	if err != nil {
		return probeTimings{}, err
	}
	cands := discovery.Discover(c.base, c.repo, c.target, discovery.Options{})
	res, err := core.Augment(c.base, cands, core.Options{
		Target: c.target, Seed: seed, Selector: all, Plan: core.FullMaterialization,
	})
	if err != nil {
		return probeTimings{}, fmt.Errorf("probe: materializing: %w", err)
	}
	task, classes, err := core.TaskOf(res.Table, c.target)
	if err != nil {
		return probeTimings{}, err
	}
	full, err := core.DatasetOf(res.Table, c.target, task, classes)
	if err != nil {
		return probeTimings{}, err
	}
	rows := rand.New(rand.NewSource(seed)).Perm(full.N)[:coreset.DefaultSize(full.N)]
	cols := make([]int, min(full.D, len(rows)))
	for j := range cols {
		cols[j] = j
	}
	ds := full.View(cols).Subset(rows)

	var p probeTimings
	p.rows, p.cols = ds.N, ds.D
	timed := func(name string, f func() error) (float64, error) {
		sp := log.start(nil, name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.end()
		return d.Seconds(), err
	}
	var rstar, forest, sparse, sparse21 []float64
	for i := 0; i < probeReps; i++ {
		t, err := timed("featsel.RIFS.RStar", func() error {
			_, err := (&featsel.RIFS{}).RStar(ds, seed)
			return err
		})
		if err != nil {
			return probeTimings{}, err
		}
		rstar = append(rstar, t)
		t, err = timed("featsel.ForestRanker.Rank", func() error {
			fr := featsel.ForestRanker{NTrees: 40, MaxDepth: 10} // RIFS's defaults
			_, err := fr.Rank(ds, seed)
			return err
		})
		if err != nil {
			return probeTimings{}, err
		}
		forest = append(forest, t)
		t, err = timed("featsel.SparseRegressionRanker.Rank", func() error {
			sr := featsel.SparseRegressionRanker{Config: ml.Sparse21Config{MaxRows: 256}}
			_, err := sr.Rank(ds, seed)
			return err
		})
		if err != nil {
			return probeTimings{}, err
		}
		sparse = append(sparse, t)
		t, err = timed("ml.SolveSparse21", func() error {
			sol, err := ml.SolveSparse21(ds, ml.Sparse21Config{MaxRows: 256, Seed: seed})
			if err == nil {
				p.iterations = sol.Iterations
			}
			return err
		})
		if err != nil {
			return probeTimings{}, err
		}
		sparse21 = append(sparse21, t)
	}
	dur := func(xs []float64) time.Duration { return time.Duration(median(xs) * float64(time.Second)) }
	p.rstar, p.forest, p.sparse, p.sparse21 = dur(rstar), dur(forest), dur(sparse), dur(sparse21)
	return p, nil
}
