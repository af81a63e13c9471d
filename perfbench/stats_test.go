package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	var d dist
	for _, x := range []float64{5, 1, 4, 2, 3} {
		d.add(x)
	}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {99, 4.96}, {100, 5},
	} {
		got, err := d.pct(c.p)
		if err != nil || !approxEq(got, c.want) {
			t.Errorf("p%v = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if d.n() != 5 {
		t.Errorf("n = %d, want 5", d.n())
	}
	// An even count has no middle sample: the median interpolates.
	var e dist
	for _, x := range []float64{4, 1, 3, 2} {
		e.add(x)
	}
	if got := e.median(); !approxEq(got, 2.5) {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if _, err := (&dist{}).pct(50); err == nil {
		t.Error("percentile of an empty distribution succeeded")
	}
}

func TestTailSupportCountsSamplesBeyond(t *testing.T) {
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(float64(i))
	}
	// p99 of 1..1000 is 990.01: ten samples lie beyond it, the least
	// support a tail percentile is reported on.
	if got := d.beyond(99); got != 10 {
		t.Errorf("beyond(99) = %d, want 10", got)
	}
	if got := d.beyond(100); got != 0 {
		t.Errorf("beyond(100) = %d, want 0", got)
	}
}

func TestFailedOperationsMissEveryLimit(t *testing.T) {
	var d dist
	for i := 0; i < 199; i++ {
		d.add(1)
	}
	d.addFailed()
	o := newOutcome()
	if err := d.report(o, "ops", 99, 66.7); err != nil {
		t.Fatalf("1 failure in 200: %v", err)
	}
	if o.metrics["p50_ms"] != 1 || !o.correct {
		t.Errorf("p50 = %v, correct %v; want 1, true", o.metrics["p50_ms"], o.correct)
	}
	// Past 1% failed, the 99th percentile is a failure: it is reported at
	// the limit and the run is marked incorrect, but the result stands.
	d.addFailed()
	d.addFailed()
	o = newOutcome()
	if err := d.report(o, "ops", 99, 66.7); err != nil {
		t.Fatalf("3 failures in 202: %v", err)
	}
	if o.metrics["tail_ms"] != 66.7 || o.correct {
		t.Errorf("p99 = %v, correct %v; want 66.7, false", o.metrics["tail_ms"], o.correct)
	}
	// Every operation failed: the median is at the limit too.
	var all dist
	all.addFailed()
	o = newOutcome()
	if err := all.report(o, "ops", 99, 66.7); err != nil {
		t.Fatal(err)
	}
	if o.metrics["p50_ms"] != 66.7 || o.correct {
		t.Errorf("p50 = %v, correct %v; want 66.7, false", o.metrics["p50_ms"], o.correct)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // clipped at 100
		{Name: "d", ID: 4, Parent: 1, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], w)
		}
	}
}

func TestTracerTotalsByGroup(t *testing.T) {
	tr := newTracer()
	tr.newGroup()
	root := tr.begin("run", -1)
	tr.end(tr.begin("layer", root))
	tr.end(root)
	tr.newGroup()
	tr.end(tr.begin("layer", -1))
	if got, want := tr.total("layer", 1), tr.spans[1].dur(); got != want {
		t.Errorf("group 1 layer total %v, want %v", got, want)
	}
	if got, want := tr.selfTotal("run", 1), tr.spans[0].dur()-tr.spans[1].dur(); got != want {
		t.Errorf("group 1 run self %v, want %v", got, want)
	}
	if tr.total("run", 2) != 0 {
		t.Error("group 2 has no run span")
	}
}

func TestSessionsPerCoreUsesCPUTime(t *testing.T) {
	if got := sessionsPerCore(360*1000, 2*time.Second); !approxEq(got, 500) {
		t.Errorf("360k samples in 2 CPU-s = %v sessions, want 500", got)
	}
	if got := sessionsPerCore(1, 0); got != 0 {
		t.Errorf("no CPU time gives %v, want 0", got)
	}
	// cpuTime counts work, not waiting: a sleep barely moves it, a spin
	// moves it by about the spin.
	c0 := cpuTime()
	time.Sleep(50 * time.Millisecond)
	slept := cpuTime() - c0
	c1 := cpuTime()
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
	}
	spun := cpuTime() - c1
	if spun < 30*time.Millisecond || slept > spun {
		t.Errorf("cpu time: sleeping 50ms took %v, spinning 50ms took %v", slept, spun)
	}
}

func TestGeneratorLateness(t *testing.T) {
	var l lateness
	if l.p99() != 0 || l.max() != 0 {
		t.Error("lateness of no ticks is not zero")
	}
	base := time.Unix(0, 0)
	l.observe(base, base.Add(-time.Millisecond)) // early: on time
	for i := 0; i < 198; i++ {
		l.observe(base, base.Add(time.Millisecond))
	}
	l.observe(base, base.Add(100*time.Millisecond))
	if got := l.max(); !approxEq(got, 100) {
		t.Errorf("max lateness %v ms, want 100", got)
	}
	if got := l.p99(); !approxEq(got, 1) {
		t.Errorf("p99 lateness %v ms, want 1 (one stall in 200 ticks)", got)
	}
}

func TestLockstepRoundsSkipFirstAndQuiescingDrains(t *testing.T) {
	k, err := newTimedSink(pantompkins.AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	frame := serve.AppendFrame(nil, 1, 0, serve.FlagStart, make([]int16, frameSamples))
	var rounds dist
	k.startPass(&rounds)
	k.Drain(nil) // a pass's first drain: nothing before it
	for i := 0; i < 3; i++ {
		if _, err := k.Ingest(frame); err != nil {
			t.Fatal(err)
		}
		frame = serve.AppendFrame(frame[:0], 1, uint16(i+1), 0, make([]int16, frameSamples))
		k.Drain(nil)
	}
	k.Drain(nil) // quiescing: no frame since the last drain
	if rounds.n() != 3 {
		t.Errorf("%d rounds timed, want 3", rounds.n())
	}
	// Between passes the sink times nothing.
	k.startPass(nil)
	k.Drain(nil)
	if _, err := k.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	k.Drain(nil)
	if rounds.n() != 3 {
		t.Errorf("%d rounds after the pass, want 3", rounds.n())
	}
}

func TestBacklogSlope(t *testing.T) {
	at := []float64{0, 1, 2, 3}
	if got := slope(at, []float64{5, 7, 9, 11}); !approxEq(got, 2) {
		t.Errorf("growing backlog slope %v, want 2", got)
	}
	if got := slope(at, []float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("steady backlog slope %v, want 0", got)
	}
	if got := slope([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("single point slope %v, want 0", got)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, cat []metricDef, got []struct{ Name, Unit string }) {
		if len(cat) != len(got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(cat))
			return
		}
		for i := range cat {
			if cat[i].name != got[i].Name || cat[i].unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], catalog %s [%s]", kind, i, got[i].Name, got[i].Unit, cat[i].name, cat[i].unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestRenderPrintsTheWholeCatalog(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	for _, d := range endToEnd {
		o.metrics[d.name] = 1
	}
	res, err := render(o, endToEnd)
	if err != nil || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("render: %v, %d metrics", err, len(res.Metrics))
	}
	delete(o.metrics, "tail_ms")
	if _, err := render(o, endToEnd); err == nil {
		t.Error("render accepted a missing end-to-end metric")
	}
	// A bypassed layer reads zero; a name outside the catalog is a bug.
	o = newOutcome()
	o.attempted = 1
	res, err = render(o, perLayer)
	if err != nil || res.Metrics["wire.frames"].Value != 0 || res.Metrics["wire.frames"].Unit != "count" {
		t.Errorf("bypassed layer: %v, %+v", err, res.Metrics["wire.frames"])
	}
	o.metrics["wire.bogus"] = 1
	if _, err := render(o, perLayer); err == nil {
		t.Error("render accepted a metric outside the catalog")
	}
	if _, err := render(newOutcome(), perLayer); err == nil {
		t.Error("render accepted a run that attempted nothing")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dse-paper", "--trace", "2"},
		{"--workload", "dse-paper", "--seconds", "0"},
		{"--workload", "dse-paper", "--seed", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
		if !strings.Contains(errOut.String(), "perfbench") {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}
