package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

const (
	// A serve-tcp pass streams tcpSessions wearables for tcpFrames
	// frames each (4 s of signal, past threshold learning) through one
	// RunNet connection.
	tcpSessions = 256
	tcpFrames   = 60
	tcpSetups   = 9
)

// tcpRig is the B9 service behind a loopback TCP listener, plus an
// identical in-process service that replays every pass through serve.Run
// as the reference event stream.
type tcpRig struct {
	svc, ref *timedSink
	ln       *serve.Listener
	sources  []serve.Source
	tr       *tracer // when set, each pass and replay records a span

	mu        sync.Mutex
	got, want []serve.Event // the last pass's events: listener, replay
}

// timedSink is a B9 service as a transport drives it, timing each
// lockstep round from the end of the drain before it to the end of the
// drain that closes it: the drain reply, the client's next frames, their
// ingest and the drain. That is the closed loop's response time: how long
// one frame from every session takes to come back as detections. A drain
// with no frame since the last one (a pass's quiescing drain) closes no
// round, and a pass's first drain has no round before it. The listener
// calls the sink under its own lock; mu orders it against startPass.
type timedSink struct {
	*serve.Service
	mu       sync.Mutex
	ingested bool
	last     time.Time // end of the previous drain; zero at a pass start
	rounds   *dist     // nil: rounds untimed
}

func newTimedSink(b9 pantompkins.Config) (*timedSink, error) {
	svc, err := serve.New(serve.Config{FS: sampleRateHz, Pipeline: b9, MaxSessions: tcpSessions})
	return &timedSink{Service: svc}, err
}

func (s *timedSink) Ingest(buf []byte) (int, error) {
	s.mu.Lock()
	s.ingested = true
	s.mu.Unlock()
	return s.Service.Ingest(buf)
}

func (s *timedSink) Drain(evs []serve.Event) []serve.Event {
	evs = s.Service.Drain(evs)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ingested && !s.last.IsZero() && s.rounds != nil {
		s.rounds.add(ms(now.Sub(s.last)))
	}
	s.last, s.ingested = now, false
	return evs
}

// startPass times the rounds of the pass about to start into rounds
// (nil: untimed).
func (s *timedSink) startPass(rounds *dist) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last, s.ingested, s.rounds = time.Time{}, false, rounds
}

func newTCPRig(cfg runConfig) (*tcpRig, error) {
	b9, err := b9Config()
	if err != nil {
		return nil, err
	}
	pop, err := newPopulation(cfg.seed, tcpSessions, tcpFrames)
	if err != nil {
		return nil, err
	}
	r := &tcpRig{}
	for s := 0; s < tcpSessions; s++ {
		lo := pop.offset[s]
		r.sources = append(r.sources, serve.Source{
			Session: uint32(s + 1),
			Samples: pop.recs[pop.rec[s]].Samples[lo : lo+tcpFrames*frameSamples],
		})
	}
	if r.svc, err = newTimedSink(b9); err != nil {
		return nil, err
	}
	if r.ref, err = newTimedSink(b9); err != nil {
		return nil, err
	}
	r.ln, err = serve.Listen(serve.ListenConfig{Network: "tcp", Addr: "127.0.0.1:0", OnEvents: r.collect(&r.got)}, r.svc)
	return r, err
}

// collect returns an event consumer appending to *dst. The listener runs
// it on its connection goroutine, the replay on the caller's; both pay
// the same lock.
func (r *tcpRig) collect(dst *[]serve.Event) func([]serve.Event) {
	return func(evs []serve.Event) {
		r.mu.Lock()
		defer r.mu.Unlock()
		*dst = append(*dst, evs...)
	}
}

// pass streams every source once over a fresh connection, timing its
// rounds into rounds (nil: untimed), and returns the client's counters.
func (r *tcpRig) pass(rounds *dist) (serve.NetRunStats, error) {
	r.mu.Lock()
	r.got = r.got[:0]
	r.mu.Unlock()
	r.svc.startPass(rounds)
	defer r.svc.startPass(nil)
	if r.tr != nil {
		r.tr.newGroup()
		defer r.tr.end(r.tr.begin("wire.run", -1))
	}
	return serve.RunNet(serve.NetConfig{Network: "tcp", Addr: r.ln.Addr().String(), FrameSamples: frameSamples}, r.sources)
}

// reference replays the pass in process through the same kind of sink
// (its round times are discarded) and reports whether the listener's
// event stream equalled it.
func (r *tcpRig) reference() (bool, error) {
	r.mu.Lock()
	r.want = r.want[:0]
	r.mu.Unlock()
	var discard dist
	r.ref.startPass(&discard)
	id := -1
	if r.tr != nil {
		id = r.tr.begin("serve.run", -1)
	}
	_, err := serve.Run(r.ref, serve.TransportConfig{FrameSamples: frameSamples}, r.sources, r.collect(&r.want))
	if r.tr != nil {
		r.tr.end(id)
	}
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Equal(r.got, r.want), nil
}

func (r *tcpRig) close() error { return r.ln.Close() }

// tcpSetup builds the rig and streams one untimed pass (sessions connect,
// pipelines are built); it runs tcpSetups times and keeps the last rig.
func tcpSetup(o *outcome, cfg runConfig) (*tcpRig, []float64, error) {
	var setups []float64
	var r *tcpRig
	for i := 0; i < tcpSetups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t := time.Now()
		var err error
		if r, err = newTCPRig(cfg); err != nil {
			return nil, nil, err
		}
		if _, err := r.pass(nil); err != nil {
			r.close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		ok, err := r.reference()
		if err != nil {
			r.close()
			return nil, nil, err
		}
		o.check(ok, "set-up pass: listener events differ from serve.Run in process")
	}
	return r, setups, nil
}

// tcpPasses is what the timed passes measured.
type tcpPasses struct {
	rounds          dist // lockstep round times, ms
	net             serve.NetRunStats
	cpu, wire       time.Duration
	passes, samples int
	alloc           uint64
}

// measure runs timed passes until the window closes, checking each
// against the in-process reference.
func (r *tcpRig) measure(o *outcome, cfg runConfig) (*tcpPasses, error) {
	m := &tcpPasses{}
	for end := cfg.deadline(); time.Now().Before(end); {
		a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
		st, err := r.pass(&m.rounds)
		el := time.Since(t0)
		m.cpu += cpuTime() - c0
		m.alloc += totalAlloc() - a0
		if err != nil {
			return nil, fmt.Errorf("RunNet pass %d: %w", m.passes+1, err)
		}
		m.wire += el
		m.passes++
		m.samples += tcpSessions * tcpFrames * frameSamples
		// A shed or NACKed frame misses the latency limit.
		for i := uint64(0); i < st.Shed+st.Nacks; i++ {
			m.rounds.addFailed()
		}
		m.net.Frames += st.Frames
		m.net.Shed += st.Shed
		m.net.Nacks += st.Nacks
		m.net.Resyncs += st.Resyncs
		m.net.Reconnects += st.Reconnects
		ok, err := r.reference()
		if err != nil {
			return nil, err
		}
		o.check(ok, "pass %d: listener events differ from serve.Run in process", m.passes)
	}
	o.attempted = int(m.net.Frames)
	o.failed = int(m.net.Shed + m.net.Nacks)
	return m, nil
}

// runTCP is the serve-tcp workload: the B9 service behind serve.Listen
// on loopback, driven by one lockstep serve.RunNet client.
func runTCP(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	r, setups, err := tcpSetup(o, cfg)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = medianOf(setups)
	o.metrics["heap_mb"] = memAfterGC()
	m, err := r.measure(o, cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	o.metrics["sessions_per_core"] = sessionsPerCore(float64(m.samples), m.cpu)
	o.metrics["alloc_mb"] = float64(m.alloc) / float64(m.passes) / (1 << 20)
	logf("serve-tcp: %d passes, %.0f sessions at 360 Hz over the wire (wall)", m.passes, float64(m.samples)/m.wire.Seconds()/sampleRateHz)
	return o, m.rounds.report(o, "lockstep round", 99, ms(framePeriod))
}

// traceTCP is the traced serve-tcp run: spans around every RunNet pass
// and its in-process serve.Run replay, whose difference is what the wire
// costs, plus the listener's and client's counters.
func traceTCP(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	r, _, err := tcpSetup(o, cfg)
	if err != nil {
		return nil, err
	}
	r.tr = newTracer()
	ln0 := r.ln.Stats()
	m, err := r.measure(o, cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	ln := r.ln.Stats()
	if err := r.close(); err != nil {
		return nil, err
	}
	var wire, inproc []float64
	for grp := 1; grp <= r.tr.group; grp++ {
		wire = append(wire, ms(r.tr.total("wire.run", grp)))
		inproc = append(inproc, ms(r.tr.total("serve.run", grp)))
	}
	perPass := float64(tcpSessions * tcpFrames * frameSamples)
	o.metrics["wire.extra_ns_per_sample"] = (medianOf(wire) - medianOf(inproc)) * 1e6 / perPass
	o.metrics["wire.sessions_360hz"] = float64(m.samples) / m.wire.Seconds() / sampleRateHz
	o.metrics["wire.frames"] = float64(ln.Frames - ln0.Frames)
	o.metrics["wire.drains"] = float64(ln.Drains - ln0.Drains)
	o.metrics["wire.nacks"] = float64(ln.Nacks - ln0.Nacks)
	o.metrics["wire.shed"] = float64(ln.Shed - ln0.Shed)
	o.metrics["wire.errors"] = float64(ln.WireErrors - ln0.WireErrors)
	o.metrics["wire.resyncs"] = float64(m.net.Resyncs)
	o.metrics["wire.reconnects"] = float64(m.net.Reconnects)
	o.metrics["trace.total_ms"] = medianOf(wire)
	o.metrics["trace.overhead_ms"] = ms(2 * spanCost())
	o.metrics["trace.spans"] = 2
	return o, r.tr.write(cfg.traceOut)
}
