package serve

import "fmt"

// The transport loop is the client+radio side of the gateway: it frames
// each session's samples into BLE-sized packets, pushes them through a
// (possibly faulty) link, delivers whatever survives to the ingest side,
// and retries with a drain-backoff when the receiver pushes back. It is
// deliberately wall-clock-free — "backoff" is measured in drain cycles,
// not sleeps — so every run is deterministic and testable.

// Sink is the ingest side a transport loop feeds: a Service, a Gateway,
// or the socket client RunNet runs Run over.
type Sink interface {
	// Ingest consumes packed frames; see Service.Ingest.
	Ingest(buf []byte) (int, error)
	// Drain advances every live session and appends its events.
	Drain(events []Event) []Event
	// Buffered reports the samples still queued across live sessions.
	Buffered() int
}

// Source is one wearable the transport loop multiplexes: a session id, a
// finite sample stream, and the link its frames traverse (nil for a
// perfect link).
type Source struct {
	Session uint32
	Samples []int16
	Link    *FaultLink
}

// TransportConfig parameterises a transport loop.
type TransportConfig struct {
	// FrameSamples is the samples per frame (default 24, ≤
	// MaxFrameSamples); the last frame of a source may be shorter.
	FrameSamples int
	// MaxRetries bounds the drain-and-retry attempts when the sink
	// rejects a frame with ErrBackpressure (default 8). Attempt i
	// drains 2^i quanta before re-offering — an exponential backoff in
	// drain cycles. A frame still rejected after the last attempt is
	// treated as lost on the wire: the gap policy downstream conceals
	// it like any other loss.
	MaxRetries int
}

// TransportStats reports what one Run did.
type TransportStats struct {
	Frames     uint64 // frames offered to the links
	Retries    uint64 // backpressure retries performed
	Shed       uint64 // frames abandoned after MaxRetries (counted lost)
	DrainCalls uint64 // sink drains, including backoff drains
}

// Run executes the transport loop: every round each unexhausted source
// emits one frame (its first carries FlagStart, its last FlagEnd),
// pushes it through its link, and the surviving frames are ingested.
// After each round the sink drains and onEvents receives the batch (it
// may be nil; the slice is reused across calls). When every source is
// exhausted the links are flushed and the sink drained until quiet.
//
// Backpressure handling is the client-side contract ErrBackpressure
// documents: drain, then re-offer the same bytes, with exponentially
// more drains per attempt (see TransportConfig.MaxRetries).
func Run(sink Sink, cfg TransportConfig, sources []Source, onEvents func([]Event)) (TransportStats, error) {
	if cfg.FrameSamples <= 0 {
		cfg.FrameSamples = 24
	}
	if cfg.FrameSamples > MaxFrameSamples {
		return TransportStats{}, fmt.Errorf("serve: %d samples per frame: %w", cfg.FrameSamples, ErrFrameSize)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}

	var st TransportStats
	var buf []byte
	var events []Event
	drain := func() {
		events = sink.Drain(events[:0])
		st.DrainCalls++
		if onEvents != nil && len(events) > 0 {
			onEvents(events)
		}
	}
	// deliver ingests one on-the-wire frame with drain-backoff.
	deliver := func(frame []byte) error {
		for attempt := 0; ; attempt++ {
			_, err := sink.Ingest(frame)
			if err == nil {
				return nil
			}
			if err != ErrBackpressure || attempt >= cfg.MaxRetries {
				if err == ErrBackpressure {
					st.Shed++
					return nil
				}
				return err
			}
			st.Retries++
			for d := 0; d < 1<<attempt; d++ {
				drain()
			}
		}
	}

	pos := make([]int, len(sources))
	seqs := make([]uint16, len(sources))
	active := len(sources)
	for active > 0 {
		for i := range sources {
			src := &sources[i]
			p := pos[i]
			if p >= len(src.Samples) {
				continue
			}
			n := cfg.FrameSamples
			if p+n > len(src.Samples) {
				n = len(src.Samples) - p
			}
			flags := uint8(0)
			if p == 0 {
				flags |= FlagStart
			}
			if p+n == len(src.Samples) {
				flags |= FlagEnd
			}
			buf = AppendFrame(buf[:0], src.Session, seqs[i], flags, src.Samples[p:p+n])
			st.Frames++
			seqs[i]++
			pos[i] = p + n
			if pos[i] >= len(src.Samples) {
				active--
			}
			if src.Link == nil {
				if err := deliver(buf); err != nil {
					return st, err
				}
				continue
			}
			for _, f := range src.Link.Push(buf) {
				if err := deliver(f); err != nil {
					return st, err
				}
			}
		}
		drain()
	}
	for i := range sources {
		if sources[i].Link == nil {
			continue
		}
		for _, f := range sources[i].Link.Flush() {
			if err := deliver(f); err != nil {
				return st, err
			}
		}
	}
	// Quiesce: with Quantum set, a single drain may leave backlog, and a
	// drain can consume samples without emitting events — loop on the
	// buffered count, then drain once more so end-of-stream flushes run.
	for sink.Buffered() > 0 {
		drain()
	}
	drain()
	return st, nil
}
