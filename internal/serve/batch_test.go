package serve

import (
	"testing"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// TestServeBatchedMatchesScalarDrain drives the batched drain through a
// churning schedule of frames and drains — many concurrent sessions of
// different lengths (batch membership churns as they finish), irregular
// frame sizes, a quantum forcing multi-round drains with ring
// wraparound, a drain stall forcing backpressure retries, and a
// mid-record FlagStart reconnect — and requires every session's event
// trace to equal the scalar reference: an independent per-session
// Pipeline.Stream fed the same samples one at a time. The reconnect
// restarts the reference: the trace before it must equal the reference
// events over the samples the service drained before the restart, the
// trace after it a fresh reference over the rest of the record. The
// oracle-mode variant repeats a smaller schedule with the kernels
// disabled.
func TestServeBatchedMatchesScalarDrain(t *testing.T) {
	type variant struct {
		name     string
		kernels  bool
		cfg      pantompkins.Config
		sessions int
		samples  int
	}
	variants := []variant{
		{"kernels/b9", true, b9Config(), 12, 1500},
		{"kernels/accurate", true, pantompkins.AccurateConfig(), 12, 1500},
		{"reference/accurate", false, pantompkins.AccurateConfig(), 4, 700},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			prev := kernel.SetEnabled(v.kernels)
			defer kernel.SetEnabled(prev)
			rec := record(t, 0, v.samples+v.sessions*40)
			s, err := New(Config{
				FS:          rec.FS,
				Pipeline:    v.cfg,
				MaxSessions: v.sessions,
				// Small ring + quantum: drains span several rounds and
				// the ring wraps mid-record.
				BufferSamples: 96,
				Quantum:       40,
			})
			if err != nil {
				t.Fatal(err)
			}
			traces := make(map[uint32]*sessionTrace)
			var events []Event
			drain := func() {
				events = s.Drain(events[:0])
				collectTraces(traces, events)
			}
			ingest := func(buf []byte) {
				_, err := s.Ingest(buf)
				if err == ErrBackpressure {
					drain()
					_, err = s.Ingest(buf)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// Sessions of staggered lengths; session 4 (cursor 3)
			// reconnects in place halfway through.
			type cursor struct {
				start, pos, end int
				seq             uint16
			}
			curs := make([]cursor, v.sessions)
			for i := range curs {
				curs[i].end = v.samples - (i*97)%600
				if curs[i].end < 200 {
					curs[i].end = 200
				}
			}
			var preRestart sessionTrace
			var preWant pantompkins.Detection
			reconnected := false
			active := v.sessions
			for round := 0; active > 0; round++ {
				for id := range curs {
					c := &curs[id]
					if c.pos >= c.end {
						continue
					}
					n := 5 + (id*7+round*3)%19
					if c.pos+n > c.end {
						n = c.end - c.pos
					}
					flags := uint8(0)
					if c.pos == 0 {
						flags |= FlagStart
					}
					if id == 3 && !reconnected && c.pos > c.end/2 {
						// The restart discards the session's backlog:
						// its detector saw only the drained samples.
						backlog, ok := s.Backlog(uint32(id + 1))
						if !ok {
							t.Fatal("session 4 not live before its reconnect")
						}
						preWant = refPrefix(t, v.cfg, rec.FS, rec.Samples[:c.pos-backlog])
						if tr := traces[uint32(id+1)]; tr != nil {
							preRestart = *tr
							*tr = sessionTrace{}
						}
						flags |= FlagStart
						c.start = c.pos
						reconnected = true
					}
					if c.pos+n == c.end {
						flags |= FlagEnd
					}
					ingest(AppendFrame(nil, uint32(id+1), c.seq, flags, rec.Samples[c.pos:c.pos+n]))
					c.seq++
					c.pos += n
					if c.pos >= c.end {
						active--
					}
				}
				// Drain every other round, except for a stalled
				// consumer over rounds 20-29: the rings fill and ingest
				// retries after a backpressure drain.
				if round%2 == 0 && (round < 20 || round >= 30) {
					drain()
				}
			}
			for i := 0; i < 4; i++ { // flush quantum-limited backlogs
				drain()
			}
			if !reconnected {
				t.Fatal("schedule never reconnected session 4")
			}
			if n := s.Sessions(); n != 0 {
				t.Fatalf("%d sessions still live after final drains", n)
			}
			checkIdentical(t, 4, &preRestart, preWant)
			for id, c := range curs {
				session := uint32(id + 1)
				tr := traces[session]
				if tr == nil || !tr.finished {
					t.Fatalf("session %d did not finish", session)
				}
				checkIdentical(t, session, tr, refDetection(t, v.cfg, rec.FS, rec.Samples[c.start:c.end]))
			}
			st := s.Stats()
			if st.Finishes != uint64(v.sessions) || st.Reconnects != 1 || st.Backpressure == 0 {
				t.Fatalf("stats: %d finishes, %d reconnects, %d backpressure", st.Finishes, st.Reconnects, st.Backpressure)
			}
		})
	}
}

// refPrefix is the reference Pipeline.Stream's unfinished detection
// after pushing samples: the events a live session has emitted once
// exactly those samples have drained.
func refPrefix(t testing.TB, cfg pantompkins.Config, fs int, samples []int16) pantompkins.Detection {
	t.Helper()
	p, err := pantompkins.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stream(fs)
	for _, x := range samples {
		st.Push(x)
	}
	det := st.Detector().Detection()
	return pantompkins.Detection{
		Peaks:  append([]int(nil), det.Peaks...),
		Events: append([]pantompkins.Event(nil), det.Events...),
	}
}

// TestServeDrainBoundsDetectorMemory pins the trim contract: after many
// drains of an endless session, the detector's retained trace stays
// small instead of growing with the stream.
func TestServeDrainBoundsDetectorMemory(t *testing.T) {
	rec := record(t, 0, 20000)
	s, err := New(Config{FS: rec.FS, Pipeline: pantompkins.AccurateConfig(), MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	seq := uint16(0)
	total := 0
	var buf []byte
	for pos := 0; pos+24 <= len(rec.Samples); pos += 24 {
		buf = AppendFrame(buf[:0], 1, seq, 0, rec.Samples[pos:pos+24])
		if _, err := s.Ingest(buf); err != nil {
			t.Fatal(err)
		}
		seq++
		events = s.Drain(events[:0])
		total += len(events)
		det, ok := s.Detection(1)
		if !ok {
			t.Fatal("session 1 not live")
		}
		if len(det.Events) > 64 || len(det.Peaks) > 64 {
			t.Fatalf("retained trace grew to %d events / %d peaks at sample %d",
				len(det.Events), len(det.Peaks), pos)
		}
	}
	if total == 0 {
		t.Fatal("stream produced no events")
	}
}
