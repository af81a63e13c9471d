package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

func testEvaluator(t *testing.T, n int) *Evaluator {
	t.Helper()
	rec, err := ecg.NSRDBRecord(0, n)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator([]*ecg.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

func TestEvaluatorAccurateConfigPerfect(t *testing.T) {
	eval := testEvaluator(t, 8000)
	q, err := eval.Evaluate(pantompkins.AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q.PeakAccuracy != 1 {
		t.Errorf("accurate accuracy %v, want 1", q.PeakAccuracy)
	}
	if q.PSNR < 100 {
		t.Errorf("accurate PSNR %v, want clamped identity (120)", q.PSNR)
	}
	if math.Abs(q.SSIM-1) > 1e-9 {
		t.Errorf("accurate SSIM %v, want 1", q.SSIM)
	}
	if eval.Evaluations() != 1 {
		t.Errorf("evaluation counter %d, want 1", eval.Evaluations())
	}
}

func TestEvaluatorQualityDegradesMonotonically(t *testing.T) {
	eval := testEvaluator(t, 8000)
	psnr := func(k int) float64 {
		var cfg pantompkins.Config
		cfg.Stage[pantompkins.HPF] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		q, err := eval.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return q.PSNR
	}
	p4, p12 := psnr(4), psnr(12)
	if !(p12 < p4) {
		t.Errorf("PSNR did not degrade: k=4 %.2f, k=12 %.2f", p4, p12)
	}
}

func TestEvaluatorRejectsEmptyRecords(t *testing.T) {
	if _, err := NewEvaluator(nil); err == nil {
		t.Error("empty record set accepted")
	}
}

func TestDefaultLSBLists(t *testing.T) {
	lists := DefaultLSBLists()
	for _, s := range pantompkins.Stages {
		l := lists[s]
		if len(l) == 0 {
			t.Fatalf("no list for %v", s)
		}
		if l[0] != pantompkins.MaxLSBs[s] {
			t.Errorf("%v list starts at %d, want %d", s, l[0], pantompkins.MaxLSBs[s])
		}
		if l[len(l)-1] != 0 {
			t.Errorf("%v list must end at 0", s)
		}
		for i := 1; i < len(l); i++ {
			if l[i] != l[i-1]-2 {
				t.Errorf("%v list not multiples of two: %v", s, l)
			}
		}
	}
}

func TestMethodologyEndToEnd(t *testing.T) {
	// The full two-gate flow on a small record: it must terminate, satisfy
	// both constraints, approximate something, and save energy.
	if testing.Short() {
		t.Skip("methodology run is slow")
	}
	rec, err := ecg.NSRDBRecord(0, 6000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator([]*ecg.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(stim)
	em.Vectors = 300
	m := NewMethodology(eval, em)

	d, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Quality.PeakAccuracy < m.FinalConstraint {
		t.Errorf("final accuracy %.3f below constraint %.3f", d.Quality.PeakAccuracy, m.FinalConstraint)
	}
	total := 0
	for _, s := range pantompkins.Stages {
		total += d.Config.Stage[s].LSBs
	}
	if total == 0 {
		t.Error("methodology produced the accurate design (no approximation)")
	}
	if d.EnergyReduction <= 1 {
		t.Errorf("energy reduction %.2f, want > 1", d.EnergyReduction)
	}
	if d.PreEvaluations == 0 || d.ProcEvaluations == 0 {
		t.Error("missing exploration counts")
	}
	// The pre-processing gate additionally enforces the PSNR constraint.
	preQ, err := eval.Evaluate(d.PreConfig)
	if err != nil {
		t.Fatal(err)
	}
	if preQ.PSNR < m.SignalConstraint {
		t.Errorf("pre-processing PSNR %.2f below gate %.2f", preQ.PSNR, m.SignalConstraint)
	}
}

// TestEvaluatorShardDeterminism is the shard-reduction determinism gate:
// Quality records, Evaluations counts and full DSE traces must be
// bit-identical across every combination of Workers in {1, 2, GOMAXPROCS}
// and RecordShards in {1, len(records)}, pinned against the sequential
// unsharded run.
func TestEvaluatorShardDeterminism(t *testing.T) {
	var records []*ecg.Record
	for i := 0; i < 3; i++ {
		rec, err := ecg.NSRDBRecord(i, 2500)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	stim, err := energy.NewStimulus(records[0])
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(stim)

	probe := func(k int) pantompkins.Config {
		var cfg pantompkins.Config
		cfg.Stage[pantompkins.HPF] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
		return cfg
	}
	type outcome struct {
		qualities []Quality
		evals     int
		res       dse.Result
	}
	run := func(workers, shards int) outcome {
		eval, err := NewEvaluatorOpts(records, EvalOptions{Workers: workers, RecordShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer eval.Close()
		var o outcome
		for _, k := range []int{0, 4, 10, 16} {
			q, err := eval.Evaluate(probe(k))
			if err != nil {
				t.Fatal(err)
			}
			o.qualities = append(o.qualities, q)
		}
		opt := dse.Options{
			Base:       pantompkins.AccurateConfig(),
			Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
			LSBs:       DefaultLSBLists(),
			Mults:      []approx.MultKind{approx.AppMultV1},
			Adds:       []approx.AdderKind{approx.ApproxAdd5},
			Constraint: 15,
			Workers:    workers,
		}
		evalPSNR := func(cfg pantompkins.Config) (float64, error) {
			q, err := eval.Evaluate(cfg)
			if err != nil {
				return 0, err
			}
			return q.PSNR, nil
		}
		o.res, err = dse.Generate(opt, evalPSNR, em.StageEnergy)
		if err != nil {
			t.Fatal(err)
		}
		o.evals = eval.Evaluations()
		return o
	}

	ref := run(1, 1)
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		// The distinct-simulation count may grow with Workers > 1 (the
		// explorer speculates past stopping points, a documented PR 1
		// property) but must never depend on the record-shard split.
		evalsRef := -1
		for _, shards := range []int{1, len(records)} {
			got := run(workers, shards)
			label := fmt.Sprintf("workers=%d shards=%d", workers, shards)
			for i := range ref.qualities {
				if got.qualities[i] != ref.qualities[i] {
					t.Errorf("%s: quality[%d] = %+v, sequential %+v", label, i, got.qualities[i], ref.qualities[i])
				}
			}
			if evalsRef < 0 {
				evalsRef = got.evals
			} else if got.evals != evalsRef {
				t.Errorf("%s: %d distinct simulations, %d with shards=1", label, got.evals, evalsRef)
			}
			if workers == 1 && got.evals != ref.evals {
				t.Errorf("%s: %d evaluations, sequential %d", label, got.evals, ref.evals)
			}
			if got.res.Config != ref.res.Config || got.res.Quality != ref.res.Quality || got.res.Evaluations != ref.res.Evaluations {
				t.Errorf("%s: DSE result %+v, sequential %+v", label, got.res, ref.res)
			}
			if len(got.res.Explored) != len(ref.res.Explored) {
				t.Fatalf("%s: trace length %d, sequential %d", label, len(got.res.Explored), len(ref.res.Explored))
			}
			for i := range ref.res.Explored {
				if got.res.Explored[i] != ref.res.Explored[i] {
					t.Errorf("%s: trace[%d] = %+v, sequential %+v", label, i, got.res.Explored[i], ref.res.Explored[i])
				}
			}
		}
	}
}

// TestEvaluatorWarmShardAllocationFree checks the per-record shard
// evaluation, and a batched multi-record shard that reuses held stage
// outputs, perform zero allocations once their scratch (pipelines,
// stage buffers, detector) is warm.
func TestEvaluatorWarmShardAllocationFree(t *testing.T) {
	eval := testEvaluator(t, 3000)
	var cfg pantompkins.Config
	cfg.Stage[pantompkins.LPF] = dsp.ArithConfig{LSBs: 8, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	// Warm: builds cfg's pipeline into the scratch pool and the result
	// cache (the alloc probe below bypasses the cache).
	if _, err := eval.Evaluate(cfg); err != nil {
		t.Fatal(err)
	}
	parts := make([]recPartial, 1)
	if err := eval.evalRange(cfg, 0, 1, parts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := eval.evalRange(cfg, 0, 1, parts); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm shard evaluation allocates %.2f times per record, want 0", avg)
	}

	// A multi-record shard re-evaluating its design starts at the
	// derivative, reading the held low-passed and filtered signals.
	batched, err := NewEvaluatorOpts(testRecords(t, 3, 3000), EvalOptions{Workers: 1, RecordShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	if _, err := batched.Evaluate(cfg); err != nil {
		t.Fatal(err)
	}
	parts = make([]recPartial, 3)
	if err := batched.evalRange(cfg, 0, 3, parts); err != nil {
		t.Fatal(err)
	}
	before := batched.ReuseStats()
	avg = testing.AllocsPerRun(20, func() {
		if err := batched.evalRange(cfg, 0, 3, parts); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm batched shard evaluation with reuse allocates %.2f times, want 0", avg)
	}
	if after := batched.ReuseStats(); after.FromDER-before.FromDER != after.Batched-before.Batched || after.Batched == before.Batched {
		t.Fatalf("re-evaluations did not start at DER: %+v -> %+v", before, after)
	}
}

func testRecords(t *testing.T, n, samples int) []*ecg.Record {
	t.Helper()
	var records []*ecg.Record
	for i := 0; i < n; i++ {
		rec, err := ecg.NSRDBRecord(i, samples)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	return records
}

// TestEvaluatorStageReuseExact walks a configuration order through
// every stage-reuse level — same low pass, same low and high pass, a
// prefix change, a canonically equal low pass, a kernel-mode flip, a
// record-range change — and checks each Quality against a fresh
// evaluator that sees only that configuration, and each run's start
// stage against the counters.
func TestEvaluatorStageReuseExact(t *testing.T) {
	records := testRecords(t, 4, 2500)
	approxStage := func(k int, add approx.AdderKind) dsp.ArithConfig {
		return dsp.ArithConfig{LSBs: k, Add: add, Mul: approx.AppMultV1}
	}
	design := func(lpf, hpf, der dsp.ArithConfig) pantompkins.Config {
		var cfg pantompkins.Config
		cfg.Stage[pantompkins.LPF] = lpf
		cfg.Stage[pantompkins.HPF] = hpf
		cfg.Stage[pantompkins.DER] = der
		return cfg
	}
	a5 := approx.ApproxAdd5
	fresh := func(opts EvalOptions, cfg pantompkins.Config) Quality {
		t.Helper()
		e, err := NewEvaluatorOpts(records, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		q, err := e.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	steps := []struct {
		name     string
		cfg      pantompkins.Config
		oracle   bool  // evaluate with kernel.SetEnabled(false)
		hpf, der int64 // expected FromHPF/FromDER increments
	}{
		{"first", design(approxStage(8, a5), dsp.ArithConfig{}, dsp.ArithConfig{}), false, 0, 0},
		{"same LPF", design(approxStage(8, a5), approxStage(6, a5), dsp.ArithConfig{}), false, 1, 0},
		{"same LPF+HPF", design(approxStage(8, a5), approxStage(6, a5), approxStage(2, a5)), false, 0, 1},
		{"LPF changed", design(approxStage(4, a5), approxStage(6, a5), dsp.ArithConfig{}), false, 0, 0},
		{"accurate LPF", design(approxStage(0, approx.ApproxAdd1), approxStage(2, a5), dsp.ArithConfig{}), false, 0, 0},
		{"canonically same LPF", design(dsp.ArithConfig{}, approxStage(4, a5), dsp.ArithConfig{}), false, 1, 0},
		{"kernels off", design(dsp.ArithConfig{}, approxStage(8, a5), dsp.ArithConfig{}), true, 0, 0},
		{"kernels off, same LPF", design(dsp.ArithConfig{}, approxStage(10, a5), dsp.ArithConfig{}), true, 1, 0},
		{"kernels back on", design(dsp.ArithConfig{}, approxStage(10, a5), approxStage(4, a5)), false, 0, 0},
	}
	opts := EvalOptions{Workers: 1, RecordShards: 1}
	eval, err := NewEvaluatorOpts(records, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eval.Close()
	for i, st := range steps {
		prev := kernel.SetEnabled(!st.oracle)
		before := eval.ReuseStats()
		got, err := eval.Evaluate(st.cfg)
		after := eval.ReuseStats()
		want := fresh(opts, st.cfg)
		kernel.SetEnabled(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("step %d (%s): reused evaluation %+v, fresh %+v", i, st.name, got, want)
		}
		if after.Batched-before.Batched != 1 || after.FromHPF-before.FromHPF != st.hpf || after.FromDER-before.FromDER != st.der {
			t.Errorf("step %d (%s): reuse counters %+v -> %+v, want +1 batched, +%d from HPF, +%d from DER",
				i, st.name, before, after, st.hpf, st.der)
		}
	}

	// Two shards on one worker share one scratch, and each shard finds
	// the other's record range held: same designs, no reuse.
	split := EvalOptions{Workers: 1, RecordShards: 2}
	eval2, err := NewEvaluatorOpts(records, split)
	if err != nil {
		t.Fatal(err)
	}
	defer eval2.Close()
	for i, st := range steps[:3] {
		got, err := eval2.Evaluate(st.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(split, st.cfg); got != want {
			t.Errorf("split step %d (%s): %+v, fresh %+v", i, st.name, got, want)
		}
	}
	if r := eval2.ReuseStats(); r.Batched != 6 || r.FromHPF != 0 || r.FromDER != 0 {
		t.Errorf("record-range change reused stages: %+v", r)
	}
}

// TestEvaluatorCloseStopsWorkers checks Close leaves no worker
// goroutines behind.
func TestEvaluatorCloseStopsWorkers(t *testing.T) {
	const workers = 4
	eval, err := NewEvaluatorOpts(testRecords(t, 2, 2000), EvalOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	// One shard per record: the evaluation scatters, starting the pool.
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err != nil {
		t.Fatal(err)
	}
	running := runtime.NumGoroutine()
	eval.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > running-workers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d with the %d workers running", runtime.NumGoroutine(), running, workers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvaluatorToleranceLatch pins the Tolerance contract: mutation before
// the first Evaluate applies, mutation after it fails loudly instead of
// silently mixing matching windows with cached results.
func TestEvaluatorToleranceLatch(t *testing.T) {
	eval := testEvaluator(t, 3000)
	eval.Tolerance = 10 // before the first Evaluate: honoured
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err != nil {
		t.Fatal(err)
	}
	eval.Tolerance = 25
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err == nil {
		t.Fatal("Tolerance mutation after the first Evaluate was silently accepted")
	}
	eval.Tolerance = 10 // restoring the latched value heals the evaluator
	if _, err := eval.Evaluate(pantompkins.AccurateConfig()); err != nil {
		t.Fatalf("restored tolerance rejected: %v", err)
	}
}
