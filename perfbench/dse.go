package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// paperSamples is the paper's evaluation unit: one 20,000-sample
// recording (100 s at 200 Hz).
const paperSamples = 20000

// The design the methodology generates on the unshifted first NSRDB-like
// record (seed 1), pinned so a change that alters the outcome fails the
// run even if the kernel-free oracle drifts with it.
const (
	pinnedDesign    = "LPF14 HPF16 DER4 SQR8 MWI16"
	pinnedReduction = "19.12"
	pinnedSims      = 27 // evaluator misses with two workers
	pinnedWorkers   = 2
)

// nsrdbRecord generates NSRDB-like subject i with its generator seed
// moved shift places along the corpus's seed sequence (18 seeds per
// place); shift 0 is exactly ecg.NSRDBRecord(i, n).
func nsrdbRecord(i int, shift int64, n int) (*ecg.Record, error) {
	c, err := ecg.NSRDBConfig(i)
	if err != nil {
		return nil, err
	}
	c.Seed += shift * ecg.NumNSRDBRecords
	return c.Generate(fmt.Sprintf("nsrdb-like/%02d", i), n)
}

// dseTail is dse-paper's tail percentile: a 20 s window holds about 180
// methodology runs, so p90 rests on about eighteen of them and p99 on
// one or two.
const dseTail = 90

// dseRecords is how many records a dse-paper run rotates through, so
// that one record's design path (27 or 28 simulations, a different
// final design) does not set a run's medians.
const dseRecords = 3

// dseShift is where the search for record j of a dse-paper run starts;
// seed 1's record 0 is the paper's record.
func dseShift(seed int64, j int) int64 { return (seed-1)*dseRecords + int64(j) }

// dseSkip separates the shifts one record slot tries, far from the
// starting shifts of other seeds.
const dseSkip = 1 << 20

// dseRecordShift returns the shift of record j of a dse-paper run: the
// first one, from dseShift on in steps of dseSkip, whose record the
// accurate pipeline detects completely. On other records the accuracy
// gate (1.0) rejects every candidate, including the accurate design, and
// the methodology stops after 20 simulations with nothing approximated:
// about one shifted seed in ten, and more in some seed ranges (three of
// five adjacent shifts in one run). Such a record measures an empty
// search, not the time to a design.
func dseRecordShift(seed int64, j int) (int64, error) {
	for m := int64(0); m < 64; m++ {
		shift := dseShift(seed, j) + m*dseSkip
		rec, err := nsrdbRecord(0, shift, paperSamples)
		if err != nil {
			return 0, err
		}
		ev, err := core.NewEvaluatorOpts([]*ecg.Record{rec}, core.EvalOptions{Workers: 1})
		if err != nil {
			return 0, err
		}
		q, err := ev.Evaluate(pantompkins.AccurateConfig())
		if err != nil {
			return 0, err
		}
		if q.PeakAccuracy == 1 {
			if m > 0 {
				logf("record %d: skipped %d shifted seeds whose accurate detection misses beats", j, m)
			}
			return shift, nil
		}
	}
	return 0, fmt.Errorf("no record for slot %d of seed %d is detected completely", j, seed)
}

// dseInputs regenerates a record of the first NSRDB-like subject and
// builds the evaluator (accurate references) and energy model over it:
// the set-up a fresh process pays before the methodology runs.
func dseInputs(shift int64, workers int) (*core.Methodology, error) {
	rec, err := nsrdbRecord(0, shift, paperSamples)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluatorOpts([]*ecg.Record{rec}, core.EvalOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		return nil, err
	}
	m := core.NewMethodology(ev, energy.NewModel(stim))
	m.Workers = workers
	return m, nil
}

// dropCaches returns the process to its cold state: no kernel tables, no
// energy characterizations, no artifact store attached.
func dropCaches() {
	kernel.DropCaches()
	energy.DropCaches()
}

// dseOracle runs the methodology once with the word-parallel kernels
// disabled (every plan delegates to the bit-serial reference models),
// returning the design and simulation count each timed run must match.
func dseOracle(shift int64, workers int) (*core.Design, int64, error) {
	prev := kernel.SetEnabled(false)
	defer func() {
		kernel.SetEnabled(prev)
		dropCaches()
	}()
	dropCaches()
	start := time.Now()
	m, err := dseInputs(shift, workers)
	if err != nil {
		return nil, 0, err
	}
	d, err := m.Run()
	if err != nil {
		return nil, 0, err
	}
	logf("dse oracle (kernels off): %v %.2fx, %d simulations in %v", d.Config, d.EnergyReduction, m.Eval.CacheStats().Misses, time.Since(start).Round(time.Millisecond))
	return d, m.Eval.CacheStats().Misses, nil
}

// checkPinned compares the seed-1 oracle against the published design.
func checkPinned(o *outcome, d *core.Design, sims int64, workers int) {
	o.check(d.Config.String() == pinnedDesign, "design %v, pinned %s", d.Config, pinnedDesign)
	o.check(fmt.Sprintf("%.2f", d.EnergyReduction) == pinnedReduction, "reduction %.2fx, pinned %sx", d.EnergyReduction, pinnedReduction)
	if workers == pinnedWorkers {
		o.check(sims == pinnedSims, "%d simulations, pinned %d", sims, pinnedSims)
	} else {
		logf("simulation count %d not pinned at %d workers (pinned at %d)", sims, workers, pinnedWorkers)
	}
}

// sameDesign reports the first field in which two methodology outcomes
// differ, or "" when they are identical.
func sameDesign(a, b *core.Design) string {
	switch {
	case a.Config != b.Config:
		return fmt.Sprintf("config %v vs %v", a.Config, b.Config)
	case a.PreConfig != b.PreConfig:
		return fmt.Sprintf("pre-processing config %v vs %v", a.PreConfig, b.PreConfig)
	case a.Quality != b.Quality:
		return fmt.Sprintf("quality %+v vs %+v", a.Quality, b.Quality)
	case a.EnergyReduction != b.EnergyReduction:
		return fmt.Sprintf("reduction %v vs %v", a.EnergyReduction, b.EnergyReduction)
	case a.PreEvaluations != b.PreEvaluations || a.ProcEvaluations != b.ProcEvaluations:
		return fmt.Sprintf("evaluations %d+%d vs %d+%d", a.PreEvaluations, a.ProcEvaluations, b.PreEvaluations, b.ProcEvaluations)
	}
	if s := sameTrace(a.PreTrace, b.PreTrace); s != "" {
		return "pre-processing trace: " + s
	}
	if s := sameTrace(a.ProcTrace, b.ProcTrace); s != "" {
		return "signal-processing trace: " + s
	}
	return ""
}

func sameTrace(a, b []dse.Candidate) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d candidates", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("candidate %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}

// memAfterGC returns the live heap in MB after a full collection.
func memAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runDSE is the dse-paper workload: the paper's two-gate methodology on
// one 20,000-sample record from a cold process state, repeated until the
// measured window closes, rotating over dseRecords records. Every run
// must reproduce its record's kernel-free oracle exactly.
func runDSE(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	workers := runtime.GOMAXPROCS(0)
	shifts := make([]int64, dseRecords)
	oracles := make([]*core.Design, dseRecords)
	oracleSims := make([]int64, dseRecords)
	for j := range oracles {
		var err error
		if shifts[j], err = dseRecordShift(cfg.seed, j); err != nil {
			return nil, err
		}
		if oracles[j], oracleSims[j], err = dseOracle(shifts[j], workers); err != nil {
			return nil, err
		}
	}
	if cfg.seed == 1 {
		checkPinned(o, oracles[0], oracleSims[0], workers)
	}
	// Allocation and throughput are totals over the window, so each
	// rotated record weighs in by its share of the runs, and the footprint
	// is the largest record's. A median would be the figure of whichever
	// record sits in the middle, and that moved with the seed (93 or
	// 103 MB allocated per run, 15 or 22 MB of heap).
	var lat dist
	var setups []float64
	var allocated uint64
	var cpu time.Duration
	var sims int64
	heap := 0.0
	for end := cfg.deadline(); time.Now().Before(end); {
		j := o.attempted % dseRecords
		dropCaches()
		runtime.GC()
		t := time.Now()
		m, err := dseInputs(shifts[j], workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
		d, err := m.Run()
		el := time.Since(t0)
		cpu += cpuTime() - c0
		allocated += totalAlloc() - a0
		o.attempted++
		lat.add(ms(el))
		if err != nil {
			// A failed run is timed like any other: the methodology has
			// no latency limit it could be reported at.
			o.failed++
			o.check(false, "methodology run: %v", err)
			continue
		}
		if o.attempted <= dseRecords {
			// The footprint of a process that has just produced a design:
			// kernel tables, characterizations, the evaluator.
			heap = max(heap, memAfterGC())
		}
		n := m.Eval.CacheStats().Misses
		sims += n
		if diff := sameDesign(d, oracles[j]); diff != "" || n != oracleSims[j] {
			o.failed++
			o.check(false, "run %d differs from the oracle: %s (simulations %d vs %d)", o.attempted, diff, n, oracleSims[j])
		}
	}
	o.metrics["setup_s"] = medianOf(setups)
	o.metrics["heap_mb"] = heap
	o.metrics["alloc_mb"] = float64(allocated) / float64(o.attempted) / (1 << 20)
	o.metrics["sessions_per_core"] = sessionsPerCore(float64(sims)*paperSamples, cpu)
	return o, lat.report(o, "methodology run", dseTail, 0)
}

// tracedLayers wraps the calls the explorer makes into the layers below
// it in spans: core.Evaluator.Evaluate and energy.Model.StageEnergy,
// each a child of the explorer span that is running (cur). onMiss sees
// each configuration the evaluator had to simulate, in order.
type tracedLayers struct {
	tr     *tracer
	cur    int
	ev     *core.Evaluator
	em     *energy.Model
	onMiss func(pantompkins.Config)
}

func (t *tracedLayers) evaluate(cfg pantompkins.Config) (core.Quality, error) {
	before := t.ev.CacheStats().Misses
	id := t.tr.begin("core.evaluate", t.cur)
	q, err := t.ev.Evaluate(cfg)
	t.tr.end(id)
	if t.ev.CacheStats().Misses > before {
		t.onMiss(cfg)
	}
	return q, err
}

func (t *tracedLayers) stageEnergy(s pantompkins.Stage, c dsp.ArithConfig) (float64, error) {
	id := t.tr.begin("energy.char", t.cur)
	e, err := t.em.StageEnergy(s, c)
	t.tr.end(id)
	return e, err
}

// psnr is the pre-processing quality Table 2 explores on.
func (t *tracedLayers) psnr(cfg pantompkins.Config) (float64, error) {
	q, err := t.evaluate(cfg)
	return q.PSNR, err
}

// explore runs f inside a span named name under parent, so the layer
// calls f makes become its children.
func (t *tracedLayers) explore(name string, parent int, f func() error) error {
	prev := t.cur
	t.cur = t.tr.begin(name, parent)
	err := f()
	t.tr.end(t.cur)
	t.cur = prev
	return err
}

// tracedGates is core.Methodology.Run re-wired with spans around every
// call into the layers below it: dse.Generate for each gate, and inside
// it the evaluator and the energy model. Workers is 1, so the spans of
// the blocking path tile the run.
func tracedGates(t *tracedLayers, m *core.Methodology) (*core.Design, error) {
	root := t.tr.begin("methodology", -1)
	defer t.tr.end(root)
	t.cur = root
	var pre, proc dse.Result
	err := t.explore("dse.generate", root, func() (err error) {
		pre, err = dse.Generate(dse.Options{
			Base: pantompkins.AccurateConfig(), Stages: m.PreStages, LSBs: m.LSBs,
			Mults: m.Mults, Adds: m.Adds, Constraint: m.SignalConstraint, Workers: 1,
		}, func(cfg pantompkins.Config) (float64, error) {
			q, err := t.evaluate(cfg)
			if err != nil {
				return 0, err
			}
			if q.PeakAccuracy < m.FinalConstraint {
				return math.Inf(-1), nil
			}
			return q.PSNR, nil
		}, t.stageEnergy)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.explore("dse.generate", root, func() (err error) {
		proc, err = dse.Generate(dse.Options{
			Base: pre.Config, Stages: m.ProcStages, LSBs: m.LSBs,
			Mults: m.Mults, Adds: m.Adds, Constraint: m.FinalConstraint, Workers: 1,
		}, func(cfg pantompkins.Config) (float64, error) {
			q, err := t.evaluate(cfg)
			return q.PeakAccuracy, err
		}, t.stageEnergy)
		return err
	})
	if err != nil {
		return nil, err
	}
	q, err := t.evaluate(proc.Config)
	if err != nil {
		return nil, err
	}
	// energy.Model.PipelineReduction, summed in the same stage order
	// through the traced StageEnergy.
	var base, app float64
	for _, s := range pantompkins.Stages {
		b, err := t.stageEnergy(s, pantompkins.AccurateConfig().Stage[s])
		if err != nil {
			return nil, err
		}
		base += b
	}
	for _, s := range pantompkins.Stages {
		a, err := t.stageEnergy(s, proc.Config.Stage[s])
		if err != nil {
			return nil, err
		}
		app += a
	}
	return &core.Design{
		Config: proc.Config, PreConfig: pre.Config, Quality: q, EnergyReduction: base / app,
		PreEvaluations: pre.Evaluations, ProcEvaluations: proc.Evaluations,
		PreTrace: pre.Explored, ProcTrace: proc.Explored,
	}, nil
}

// ladder is the replay of a run's simulated configurations outside the
// evaluator, timing each step of one evaluation separately: building
// the pipeline (kernel plans and tables), running its stages, detecting
// peaks, and grading the output.
type ladder struct {
	build, run, detect, grade time.Duration
	samples                   int
}

func (l ladder) sum() time.Duration { return l.build + l.run + l.detect + l.grade }

// gradingRefs builds the accurate references the evaluator grades
// against (what core.NewEvaluator computes internally).
func gradingRefs(recs []*ecg.Record) ([]*metrics.SignalRef, error) {
	acc, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		return nil, err
	}
	refs := make([]*metrics.SignalRef, len(recs))
	for i, rec := range recs {
		out := acc.Run(rec.Samples)
		if refs[i], err = metrics.NewSignalRef(out.Filtered, metrics.SSIMWindow); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// replayLadder evaluates every configuration over every record the way
// the evaluator does, one layer call at a time: per record, or with
// batched set, all records of a design through one PipelineBatch round
// as the evaluator's multi-record shards do.
func replayLadder(cfgs []pantompkins.Config, recs []*ecg.Record, refs []*metrics.SignalRef, batched bool) (ladder, error) {
	var l ladder
	var out pantompkins.Outputs
	var pd pantompkins.PeakDetector
	var batch *pantompkins.PipelineBatch
	blocks := make([][]int16, len(recs))
	for i, rec := range recs {
		blocks[i] = rec.Samples
		l.samples += len(cfgs) * len(rec.Samples)
	}
	grade := func(ri int, filtered, integrated []int64) error {
		t := time.Now()
		det := pd.Detect(filtered, integrated, recs[ri].FS)
		t1 := time.Now()
		if _, _, err := refs[ri].Quality(filtered); err != nil {
			return err
		}
		if _, err := metrics.MatchPeaks(recs[ri].Annotations, det.Peaks, core.DefaultPeakTolerance); err != nil {
			return err
		}
		l.detect += t1.Sub(t)
		l.grade += time.Since(t1)
		return nil
	}
	for _, cfg := range cfgs {
		n := 1
		if batched {
			n = 1 + len(recs) // the plan donor and one pipeline per record
		}
		pipes := make([]*pantompkins.Pipeline, n)
		t := time.Now()
		for i := range pipes {
			p, err := pantompkins.New(cfg)
			if err != nil {
				return l, err
			}
			pipes[i] = p
		}
		l.build += time.Since(t)
		if !batched {
			for ri, rec := range recs {
				t = time.Now()
				pipes[0].RunInto(&out, rec.Samples)
				l.run += time.Since(t)
				if err := grade(ri, out.Filtered, out.Integrated); err != nil {
					return l, err
				}
			}
			continue
		}
		t = time.Now()
		if batch == nil {
			batch = pantompkins.NewPipelineBatch(pipes[0])
		} else {
			batch.Reset(pipes[0])
		}
		filt, integ := batch.Run(pipes[1:], blocks)
		l.run += time.Since(t)
		for ri := range recs {
			if err := grade(ri, filt[ri], integ[ri]); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

// layerSums collects one traced run's per-layer totals; the traced
// workloads report the median of each over their runs.
type layerSums map[string][]float64

func (s layerSums) add(name string, v float64) { s[name] = append(s[name], v) }

func (s layerSums) into(o *outcome) {
	for k, v := range s {
		o.metrics[k] = medianOf(v)
	}
}

// residualTolerancePct bounds how far the layer spans of a traced run may
// fall short of its total: with one worker, evaluation, energy
// characterization and explorer self time tile the run.
const residualTolerancePct = 2

// ladderTolerancePct bounds the ladder's distance from the evaluator time
// it decomposes; the evaluator adds scheduling and scratch management the
// ladder does not replay, so this one is only reported.
const ladderTolerancePct = 25

// addTotals records one traced run's layer totals and checks that they
// add up to the run.
func (s layerSums) addTotals(o *outcome, total, eval, char, self time.Duration) {
	s.add("trace.total_ms", ms(total))
	s.add("core.evaluate_ms", ms(eval))
	s.add("energy.char_ms", ms(char))
	s.add("dse.self_ms", ms(self))
	res := pctOf(absDur(total-eval-char-self), total)
	s.add("trace.residual_pct", res)
	o.check(res <= residualTolerancePct, "layer spans cover %.2f%% less or more than the run (tolerance %d%%)", res, residualTolerancePct)
}

// addLadder records a ladder replay, and its residual against the
// evaluator time it decomposes.
func (s layerSums) addLadder(l ladder, evaluate time.Duration) {
	s.add("kernel.build_ms", ms(l.build))
	s.add("pipeline.run_ms", ms(l.run))
	if l.samples > 0 {
		s.add("pipeline.ns_per_sample", float64(l.run)/float64(l.samples))
	}
	s.add("detector.ms", ms(l.detect))
	s.add("metrics.ms", ms(l.grade))
	res := pctOf(absDur(evaluate-l.sum()), evaluate)
	s.add("trace.ladder_residual_pct", res)
	if res > ladderTolerancePct {
		logf("FLAG: ladder sum is %.1f%% off core.evaluate_ms (tolerance %d%%)", res, ladderTolerancePct)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// traceDSE is the traced dse-paper run, over the same records. It
// alternates an untraced sequential core.Methodology.Run with the traced
// re-wiring of the same gates (both at workers = 1, so spans on the
// blocking path add up), and checks that both produce the same design.
// The difference between the two medians is the tracing overhead.
func traceDSE(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	sums := layerSums{}
	shifts := make([]int64, dseRecords)
	for j := range shifts {
		var err error
		if shifts[j], err = dseRecordShift(cfg.seed, j); err != nil {
			return nil, err
		}
	}
	var plain, traced []float64
	for end := cfg.deadline(); time.Now().Before(end); {
		shift := shifts[o.attempted%dseRecords]
		dropCaches()
		runtime.GC()
		m, err := dseInputs(shift, 1)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		want, err := m.Run()
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms(time.Since(t)))

		dropCaches()
		runtime.GC()
		if m, err = dseInputs(shift, 1); err != nil {
			return nil, err
		}
		tr.newGroup()
		var simulated []pantompkins.Config
		got, err := tracedGates(&tracedLayers{tr: tr, ev: m.Eval, em: m.Energy,
			onMiss: func(c pantompkins.Config) { simulated = append(simulated, c) }}, m)
		o.attempted++
		if err != nil {
			return nil, err
		}
		if diff := sameDesign(got, want); diff != "" {
			o.failed++
			o.check(false, "traced design differs from core.Methodology.Run: %s", diff)
		}
		total, eval := tr.total("methodology", tr.group), tr.total("core.evaluate", tr.group)
		char := tr.total("energy.char", tr.group)
		self := tr.selfTotal("dse.generate", tr.group)
		traced = append(traced, ms(total))
		sums.addTotals(o, total, eval, char, self)
		sums.add("dse.candidates", float64(len(got.PreTrace)+len(got.ProcTrace)))
		st := m.Eval.CacheStats()
		sums.add("core.evaluations", float64(st.Misses))
		sums.add("core.hit_ratio", ratio(st.Hits, st.Misses))
		es := energy.CacheStats()
		sums.add("energy.builds", float64(es.Misses))
		sums.add("energy.hit_ratio", ratio(es.Hits, es.Misses))
		sums.add("kernel.table_kib", float64(kernel.CacheStats().TableBytes)/1024)

		// The ladder starts from cold kernel caches, as the run did.
		kernel.DropCaches()
		refs, err := gradingRefs(m.Eval.Records)
		if err != nil {
			return nil, err
		}
		l, err := replayLadder(simulated, m.Eval.Records, refs, false)
		if err != nil {
			return nil, err
		}
		sums.addLadder(l, eval)
	}
	sums.into(o)
	o.metrics["trace.overhead_ms"] = medianOf(traced) - medianOf(plain)
	o.metrics["trace.spans"] = float64(len(tr.spans)) / float64(o.attempted)
	logf("traced methodology: %d runs, traced %.1f ms vs untraced %.1f ms", o.attempted, medianOf(traced), medianOf(plain))
	return o, tr.write(cfg.traceOut)
}
