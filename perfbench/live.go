package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/experiments"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

const (
	// frameSamples is one BLE-sized frame; at 360 Hz a session sends one
	// every framePeriod (66.7 ms), which is also the latency limit.
	frameSamples = 24
	framePeriod  = time.Second * frameSamples / sampleRateHz

	// liveSessions keeps the gateway about a fifth busy (18-22%) on the
	// two-core reference host. At 2048 (13-16% busy) the fixed cost of a
	// tick weighed more and sessions_per_core moved 10% between runs; at
	// 4096 (about half busy) a slow phase of the shared host pushed it to
	// 60% busy and p99 from 13 to 24-29 ms in two runs of ten: the tail
	// measured the neighbours, not the gateway.
	liveSessions = 3072
	// liveGroups phase-staggers the sessions: each frame period is
	// split into this many ticks, and a tick ingests the frames that
	// fell due in it, then drains.
	liveGroups = 8
	// liveWarmFrames streams every session past the detector's 2 s
	// threshold-learning phase before measurement starts.
	liveWarmFrames = 40
	// liveSetups is how often a serve-live run repeats its set-up.
	liveSetups = 5

	// Each session streams one of the 18 NSRDB-like subjects from one
	// of startPhases offsets startStep samples apart (spanning about one
	// beat), so beats land on different ticks.
	startPhases = 16
	startStep   = 23
)

// b9Config is the paper's Fig 12 design B9, the serving workloads'
// deployed configuration, built the way the CLI builds it.
func b9Config() (pantompkins.Config, error) {
	for _, hc := range experiments.Fig12Configs {
		if hc.Name != "B9" {
			continue
		}
		s, err := programSetup(core.EvalOptions{})
		if err != nil {
			return pantompkins.Config{}, err
		}
		return s.Config(hc.LSBs), nil
	}
	return pantompkins.Config{}, fmt.Errorf("design B9 missing from the Fig 12 table")
}

// population is a seeded set of wearables: which record each session
// streams and from which offset.
type population struct {
	recs   []*ecg.Record // 360 Hz NSRDB-like subjects
	rec    []int         // per session: record index
	offset []int         // per session: first sample streamed
}

// newPopulation generates the subjects at 360 Hz, long enough for frames
// frames from the farthest offset, and assigns sessions to (record,
// offset) pairs from the seed.
func newPopulation(seed int64, sessions, frames int) (*population, error) {
	n := (startPhases-1)*startStep + frames*frameSamples
	p := &population{recs: make([]*ecg.Record, ecg.NumNSRDBRecords)}
	for i := range p.recs {
		c, err := ecg.NSRDBConfig(i)
		if err != nil {
			return nil, err
		}
		c.FS = sampleRateHz
		c.Seed += (seed - 1) * ecg.NumNSRDBRecords
		if p.recs[i], err = c.Generate(fmt.Sprintf("nsrdb-like/%02d@360", i), n); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < sessions; s++ {
		p.rec = append(p.rec, rng.Intn(len(p.recs)))
		p.offset = append(p.offset, rng.Intn(startPhases)*startStep)
	}
	return p, nil
}

// frame returns session s's f-th frame of samples.
func (p *population) frame(s, f int) []int16 {
	lo := p.offset[s] + f*frameSamples
	return p.recs[p.rec[s]].Samples[lo : lo+frameSamples]
}

// referenceBeats runs pantompkins.Pipeline.Stream over the first frames
// frames of every session and returns each session's detected peaks.
// Sessions streaming the same (record, offset) share one reference run.
func (p *population) referenceBeats(cfg pantompkins.Config, frames int) ([][]int, error) {
	type key struct{ rec, off int }
	memo := map[key][]int{}
	out := make([][]int, len(p.rec))
	for s := range p.rec {
		k := key{p.rec[s], p.offset[s]}
		if _, ok := memo[k]; !ok {
			pipe, err := pantompkins.New(cfg)
			if err != nil {
				return nil, err
			}
			st := pipe.Stream(sampleRateHz)
			for _, x := range p.recs[k.rec].Samples[k.off : k.off+frames*frameSamples] {
				st.Push(x)
			}
			memo[k] = append([]int(nil), st.Detector().Detection().Peaks...)
		}
		out[s] = memo[k]
	}
	return out, nil
}

// compareBeats checks every session's streamed beats against its
// reference and returns the number of reference beats not reproduced.
func compareBeats(o *outcome, got, want [][]int) int {
	missing, bad := 0, 0
	for s := range want {
		ok := len(got[s]) == len(want[s])
		matched := 0
		for i := 0; i < len(got[s]) && i < len(want[s]); i++ {
			if got[s][i] != want[s][i] {
				ok = false
				break
			}
			matched++
		}
		missing += len(want[s]) - matched
		if !ok {
			bad++
			if bad <= 3 {
				o.check(false, "session %d: beats %v, reference %v", s+1, got[s], want[s])
			}
		}
	}
	o.check(bad == 0, "%d of %d sessions' beats differ from pantompkins.Pipeline.Stream", bad, len(want))
	return missing
}

// liveGen is the open-loop load generator in front of the gateway.
// Frame due times are stamped into the service through Config.Now, so a
// beat event's LatencyNs gives back the due time of the frame that
// carried its deciding sample.
type liveGen struct {
	pop   *population
	gw    *serve.Gateway
	order []int // sessions in phase order: order[i] is due at i/N of the period
	sent  []int // frames sent per session
	seqs  []uint16
	clock atomic.Int64 // what the service's Now returns
	buf   []byte
	evs   []serve.Event
	beats [][]int

	refused int    // frames rejected with backpressure
	evicted []bool // sessions the gateway evicted
	tr      *tracer
}

func newLiveGen(pop *population, seed int64, shards int) (*liveGen, error) {
	b9, err := b9Config()
	if err != nil {
		return nil, err
	}
	n := len(pop.rec)
	g := &liveGen{pop: pop, sent: make([]int, n), seqs: make([]uint16, n), beats: make([][]int, n), evicted: make([]bool, n)}
	g.order = rand.New(rand.NewSource(seed + 1)).Perm(n)
	g.gw, err = serve.NewGateway(serve.GatewayConfig{
		Shards: shards,
		Service: serve.Config{
			FS: sampleRateHz, Pipeline: b9,
			// 2x slack on the hash spread so no shard ever evicts.
			MaxSessions:  2 * n,
			TrackLatency: true,
			Now:          func() int64 { return g.clock.Load() },
		},
	})
	return g, err
}

// due returns when the k-th frame of the i-th session in phase order is
// due, as an offset from the generator's start.
func (g *liveGen) due(k, i int) time.Duration {
	return time.Duration(k)*framePeriod + time.Duration(i)*framePeriod/time.Duration(len(g.order))
}

// tick ingests the frames of phase group grp in period k (each stamped
// with its due time), then drains, and hands every beat's latency, in
// ms from its frame's due time to the drain's return, to onBeat. It
// returns how long the ingest and drain took. With a tracer attached the
// tick records a span around its ingest calls and one around the drain.
func (g *liveGen) tick(start time.Time, k, grp int, onBeat func(ms float64)) (ingest, drain time.Duration) {
	n := len(g.order)
	lo, hi := grp*n/liveGroups, (grp+1)*n/liveGroups
	root, span := -1, -1
	if g.tr != nil {
		g.tr.newGroup()
		root = g.tr.begin("tick", -1)
		span = g.tr.begin("serve.ingest", root)
	}
	t0 := time.Now()
	for i := lo; i < hi; i++ {
		s := g.order[i]
		flags := uint8(0)
		if g.sent[s] == 0 {
			flags = serve.FlagStart
		}
		g.buf = serve.AppendFrame(g.buf[:0], uint32(s+1), g.seqs[s], flags, g.pop.frame(s, g.sent[s]))
		g.sent[s]++
		g.clock.Store(int64(g.due(k, i)))
		if _, err := g.gw.Ingest(g.buf); err != nil {
			// The frame is lost; the session's next frame keeps the
			// sequence number, so its stream has a hole the beat check
			// sees.
			g.refused++
			continue
		}
		g.seqs[s]++
	}
	t1 := time.Now()
	if g.tr != nil {
		g.tr.end(span)
		span = g.tr.begin("serve.drain", root)
	}
	g.clock.Store(0) // the drain's "now": LatencyNs = -due
	g.evs = g.gw.Drain(g.evs[:0])
	t2 := time.Now()
	if g.tr != nil {
		g.tr.end(span)
		g.tr.end(root)
	}
	done := t2.Sub(start)
	for i := range g.evs {
		ev := &g.evs[i]
		switch ev.Kind {
		case serve.EventBeat:
			g.beats[ev.Session-1] = append(g.beats[ev.Session-1], ev.Peak)
			if onBeat != nil {
				onBeat(ms(done - time.Duration(-ev.LatencyNs)))
			}
		case serve.EventEvicted:
			g.evicted[ev.Session-1] = true
		}
	}
	return t1.Sub(t0), t2.Sub(t1)
}

// warm streams every session's first liveWarmFrames frames as fast as
// the gateway takes them: sessions connect, pipelines and detector rings
// are built, and threshold learning completes before anything is timed.
func (g *liveGen) warm() {
	for k := 0; k < liveWarmFrames; k++ {
		for grp := 0; grp < liveGroups; grp++ {
			g.tick(time.Now(), k, grp, nil)
		}
	}
}

// liveSetup builds the population, the gateway and warms every session;
// it runs liveSetups times and keeps the last generator.
func liveSetup(cfg runConfig, frames int) (*liveGen, []float64, error) {
	var setups []float64
	var g *liveGen
	for i := 0; i < liveSetups; i++ {
		if g != nil {
			g.gw.Close()
		}
		runtime.GC()
		t := time.Now()
		pop, err := newPopulation(cfg.seed, liveSessions, frames)
		if err != nil {
			return nil, nil, err
		}
		if g, err = newLiveGen(pop, cfg.seed, runtime.GOMAXPROCS(0)); err != nil {
			return nil, nil, err
		}
		g.warm()
		setups = append(setups, time.Since(t).Seconds())
	}
	return g, setups, nil
}

// liveRun is what one open-loop window measured.
type liveRun struct {
	lat     dist          // sample-to-beat latency, ms
	late    lateness      // generator lateness per tick
	busy    time.Duration // ingest + drain time
	backlog []float64     // Gateway.Buffered() after each drain
	at      []float64     // when, in seconds into the window
	wall    time.Duration
}

// run drives the warmed gateway open loop for periods frame periods.
// Each tick sleeps until its group's last frame is due, so a stall delays
// the ticks behind it and their latency, timed from the due time, shows
// it.
func (g *liveGen) run(periods int) *liveRun {
	r := &liveRun{}
	r.lat.xs = make([]float64, 0, liveSessions*periods/2)
	start := time.Now().Add(-time.Duration(liveWarmFrames) * framePeriod)
	onBeat := func(ms float64) { r.lat.add(ms) }
	for k := liveWarmFrames; k < liveWarmFrames+periods; k++ {
		for grp := 0; grp < liveGroups; grp++ {
			sched := start.Add(g.due(k, (grp+1)*len(g.order)/liveGroups-1))
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			r.late.observe(sched, time.Now())
			in, dr := g.tick(start, k, grp, onBeat)
			r.busy += in + dr
			r.backlog = append(r.backlog, float64(g.gw.Buffered()))
			r.at = append(r.at, time.Since(start).Seconds())
		}
	}
	r.wall = time.Since(start) - time.Duration(liveWarmFrames)*framePeriod
	return r
}

// flag reports the open-loop conditions under which latency figures
// stop describing a steady system: a growing backlog, or a generator
// that fell more than a frame period behind its schedule.
func (r *liveRun) flag() int {
	flags := 0
	if s := slope(r.at, r.backlog); s > 0 {
		logf("FLAG: gateway backlog grows by %.1f samples/s", s)
		flags++
	}
	if m := r.late.max(); m > ms(framePeriod) {
		logf("FLAG: generator fell %.1f ms behind (limit %.1f ms)", m, ms(framePeriod))
		flags++
	}
	return flags
}

// livePeriods is the number of whole frame periods in the window.
func livePeriods(cfg runConfig) int {
	p := int(time.Duration(cfg.seconds*float64(time.Second)) / framePeriod)
	return max(p, 1)
}

// finishLive checks the streamed beats and fills the accounting shared
// by the traced and untraced runs: frames offered, and failures —
// refused frames, frames of evicted sessions and reference beats never
// produced.
func finishLive(o *outcome, g *liveGen, r *liveRun, frames int) error {
	b9, err := b9Config()
	if err != nil {
		return err
	}
	want, err := g.pop.referenceBeats(b9, frames)
	if err != nil {
		return err
	}
	missing := compareBeats(o, g.beats, want)
	lost := g.refused
	for s, ev := range g.evicted {
		if ev {
			lost += g.sent[s]
		}
	}
	o.attempted = liveSessions * frames
	o.failed = lost + missing
	for i := 0; i < lost; i++ {
		r.lat.addFailed()
	}
	return nil
}

// runLive is the serve-live workload: liveSessions wearables streaming
// B9 detection through a sharded gateway, open loop at 360 Hz.
func runLive(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	periods := livePeriods(cfg)
	frames := liveWarmFrames + periods
	g, setups, err := liveSetup(cfg, frames)
	if err != nil {
		return nil, err
	}
	defer g.gw.Close()
	o.metrics["setup_s"] = medianOf(setups)
	o.metrics["heap_mb"] = memAfterGC()
	a0, c0, s0 := totalAlloc(), cpuTime(), g.gw.Stats().Samples
	r := g.run(periods)
	cpu, alloc := cpuTime()-c0, totalAlloc()-a0
	samples := g.gw.Stats().Samples - s0
	if err := finishLive(o, g, r, frames); err != nil {
		return nil, err
	}
	r.flag()
	o.metrics["sessions_per_core"] = sessionsPerCore(float64(samples), cpu)
	o.metrics["alloc_mb"] = float64(alloc) / float64(periods) / (1 << 20)
	logf("serve-live: %d sessions, %d periods, gateway busy %.0f%%, generator late p99 %.2f ms",
		liveSessions, periods, 100*r.busy.Seconds()/r.wall.Seconds(), r.late.p99())
	return o, r.lat.report(o, "sample-to-beat latency", 99, ms(framePeriod))
}

// traceLive is the traced serve-live run: the same open loop with spans
// around each tick's Gateway.Ingest calls and its Gateway.Drain, plus a
// replay of session blocks through the two layers a drain is made of.
func traceLive(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	periods := livePeriods(cfg)
	frames := liveWarmFrames + periods
	g, _, err := liveSetup(cfg, frames)
	if err != nil {
		return nil, err
	}
	defer g.gw.Close()
	g.tr = newTracer()
	r := g.run(periods)
	if err := finishLive(o, g, r, frames); err != nil {
		return nil, err
	}
	var tick, ingest, drain dist
	for grp := 1; grp <= g.tr.group; grp++ {
		tick.add(ms(g.tr.total("tick", grp)))
		ingest.add(ms(g.tr.total("serve.ingest", grp)))
		drain.add(ms(g.tr.total("serve.drain", grp)))
	}
	st := g.gw.Stats()
	o.metrics["serve.ingest_ms"] = ingest.median()
	o.metrics["serve.drain_ms"] = drain.median()
	o.metrics["serve.busy_ratio"] = tick.sum() / ms(r.wall)
	o.metrics["serve.backlog_max_samples"] = maxOf(r.backlog)
	o.metrics["serve.backlog_slope"] = slope(r.at, r.backlog)
	o.metrics["serve.backpressure"] = float64(st.Backpressure)
	o.metrics["serve.evictions"] = float64(st.Evictions)
	o.metrics["loadgen.late_p99_ms"] = r.late.p99()
	o.metrics["loadgen.flagged"] = float64(r.flag())
	o.metrics["trace.total_ms"] = tick.median()
	o.metrics["trace.overhead_ms"] = ms(3 * spanCost())
	o.metrics["trace.spans"] = 3
	batch, det, err := replayDrain(g.pop)
	if err != nil {
		return nil, err
	}
	o.metrics["serve.batch_ns_per_sample"] = batch
	o.metrics["serve.detector_ns_per_sample"] = det
	return o, g.tr.write(cfg.traceOut)
}

// replayDrain replays 64 sessions' frames the way a batched drain
// processes them — every frame period one PipelineBatch.Run round at
// width 64, then each session's outputs through its StreamDetector — and
// returns the ns per sample of each of the two layers.
func replayDrain(pop *population) (batchNs, detNs float64, err error) {
	const width = 64
	b9, err := b9Config()
	if err != nil {
		return 0, 0, err
	}
	donor, err := pantompkins.New(b9)
	if err != nil {
		return 0, 0, err
	}
	batch := pantompkins.NewPipelineBatch(donor)
	pipes := make([]*pantompkins.Pipeline, width)
	dets := make([]*pantompkins.StreamDetector, width)
	for i := range pipes {
		if pipes[i], err = pantompkins.New(b9); err != nil {
			return 0, 0, err
		}
		dets[i] = pantompkins.NewStreamDetector(sampleRateHz)
	}
	blocks := make([][]int16, width)
	frames := (len(pop.recs[0].Samples) - (startPhases-1)*startStep) / frameSamples
	var tb, td time.Duration
	for f := 0; f < frames; f++ {
		for i := range blocks {
			blocks[i] = pop.frame(i, f)
		}
		t0 := time.Now()
		filt, integ := batch.Run(pipes, blocks)
		t1 := time.Now()
		for i, d := range dets {
			for k := range filt[i] {
				d.Push(filt[i][k], integ[i][k])
			}
		}
		tb += t1.Sub(t0)
		td += time.Since(t1)
	}
	n := float64(frames * width * frameSamples)
	return float64(tb) / n, float64(td) / n, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
