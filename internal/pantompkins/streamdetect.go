package pantompkins

// StreamDetector holds the adaptive-threshold decision loop — the only
// detector implementation — together with its state: the Pan-Tompkins
// thresholds, RR statistics and searchback candidates. It reads samples
// from a linear window and has two feeders. Push appends one sample at a
// time and advances the decisions in O(1) amortised work and bounded
// memory; PeakDetector.Detect points the window at a whole record and
// runs the same loop over it in one pass (see Detect for the algorithm).
//
// When pushed, the detector lags the signal head by a bounded horizon: a
// candidate peak at index i is decided once filtered samples up to
// i+alignAhead exist (the filtered-peak search window is then final) —
// about 50 ms at the pipeline's sampling rate — and the decisions of the
// first two seconds are held until the threshold learning window
// completes, since the estimates are seeded from those samples. Finish
// flushes the held tail with end-of-record window clamping and returns
// the final Detection, equal to Detect over the same two signals.
//
// Degenerate inputs match Detect: a non-positive sampling rate or an
// empty stream yields an empty Detection.
type StreamDetector struct {
	fs int
	// Derived windows, in samples.
	refractory int
	tWaveWin   int
	searchWin  int
	alignAhead int
	slopeWin   int
	learn      int

	// The sample window: fwin[j-base] and iwin[j-base] are filtered and
	// integrated sample j, for base <= j < t. Pushed samples are appended
	// into the detector's own fbuf/ibuf; when their windowSlack spare
	// samples run out, the newest learn+alignAhead+4 samples — which cover
	// every lookback an undecided candidate performs — move to the front.
	// Whole-record detection points the window at the caller's slices
	// with base 0 instead.
	fwin, iwin []int64
	base       int
	fbuf, ibuf []int64

	t      int  // samples seen so far
	cursor int  // next candidate index to examine
	seeded bool // threshold learning completed
	done   bool // Finish called

	// Learning-phase accumulators over the first learn samples.
	maxI, sumI float64
	maxF, sumF float64

	// Running detector state.
	spki, npki float64
	spkf, npkf float64
	lastQRS    int
	lastSlope  float64
	rrMean     float64
	rr         [8]int // ring of the last RR intervals
	rrLen      int
	rrPos      int
	pending    []candidate // rejected since the last QRS, for searchback

	det Detection
}

// windowSlack is how many samples Push appends between two compactions of
// the window. Each compaction copies the retained learn+alignAhead+4
// samples, so a larger slack compacts less often but holds more memory
// per detector — one per live session in a serving gateway.
const windowSlack = 64

// candidate is a pending searchback candidate with its decision-time
// context (filtered peak, slope), so a later searchback acceptance needs
// no access to samples that have left the window. The slope is only
// needed if the candidate is accepted, so it is computed lazily: a
// negative slope means "not yet", and compact fills it in before the
// samples it reads leave the window.
type candidate struct {
	idx   int
	val   int64
	fpos  int
	fval  float64
	slope float64
}

// NewStreamDetector builds an incremental detector for signals sampled at
// fs Hz. A non-positive fs yields a detector that ignores samples and
// reports an empty Detection, like Detect.
func NewStreamDetector(fs int) *StreamDetector {
	d := &StreamDetector{fs: fs}
	d.Reset()
	return d
}

// Reset returns the detector to its initial state so a new record or
// stream can start; the window and event buffers are kept.
func (d *StreamDetector) Reset() {
	d.det.Peaks = d.det.Peaks[:0]
	d.det.MWIPeaks = d.det.MWIPeaks[:0]
	d.det.Events = d.det.Events[:0]
	d.done = false
	fs := d.fs
	if fs <= 0 {
		return
	}
	d.refractory = int(refractoryS * float64(fs))
	d.tWaveWin = int(tWaveWindowS * float64(fs))
	d.searchWin = int(searchWindowS * float64(fs))
	d.alignAhead = int(alignAheadS * float64(fs))
	d.slopeWin = int(0.075 * float64(fs))
	d.learn = int(learnS * float64(fs))
	d.fwin, d.iwin, d.base = d.fbuf[:0], d.ibuf[:0], 0
	d.t, d.cursor = 0, 1
	d.seeded = false
	d.maxI, d.sumI, d.maxF, d.sumF = 0, 0, 0, 0
	d.lastQRS = -d.refractory - 1
	d.lastSlope = 0
	d.rrMean = float64(fs) * 0.8 // prior: 75 bpm until measured
	d.rrLen, d.rrPos = 0, 0
	d.pending = d.pending[:0]
}

// Push feeds one sample of the filtered and integrated signals (the pair
// Detect consumes) and advances every decision whose lookahead is
// complete. It must not be called after Finish without an intervening
// Reset.
func (d *StreamDetector) Push(filtered, integrated int64) {
	if d.fs <= 0 {
		return
	}
	if d.done {
		panic("pantompkins: StreamDetector.Push after Finish (Reset first)")
	}
	if len(d.iwin) == cap(d.iwin) {
		d.compact()
	}
	d.fwin = append(d.fwin, filtered)
	d.iwin = append(d.iwin, integrated)
	d.t++
	if !d.seeded {
		d.observe(filtered, integrated)
		if d.t < d.learn {
			return
		}
		d.seed(d.learn)
	}
	d.advance(false)
}

// compact makes room in the window for the next pushed sample: it keeps
// the newest learn+alignAhead+4 samples, moving them to the front of the
// buffers, and allocates the buffers on a detector's first Push. Pending
// candidates get their slopes first, while the samples are still there.
func (d *StreamDetector) compact() {
	keep := d.learn + d.alignAhead + 4
	for k := range d.pending {
		if d.pending[k].slope < 0 {
			d.pending[k].slope = d.slopeBefore(d.pending[k].idx)
		}
	}
	if len(d.iwin) < keep {
		d.fbuf = append(make([]int64, 0, keep+windowSlack), d.fwin...)
		d.ibuf = append(make([]int64, 0, keep+windowSlack), d.iwin...)
		d.fwin, d.iwin = d.fbuf, d.ibuf
		return
	}
	drop := len(d.iwin) - keep
	d.fwin = d.fwin[:copy(d.fwin, d.fwin[drop:])]
	d.iwin = d.iwin[:copy(d.iwin, d.iwin[drop:])]
	d.base += drop
}

// detectRecord is the whole-record feeder: it points the window at the
// caller's slices (no copy), seeds the estimates from the first
// min(learn, n) samples and makes every decision with end-of-record
// clamping — what pushing every sample and calling Finish does, without
// the lookahead bookkeeping. The window is detached again on return, so
// the detector does not keep the record alive.
func (d *StreamDetector) detectRecord(filtered, integrated []int64, fs int) *Detection {
	d.fs = fs
	d.Reset()
	n := len(integrated)
	if n == 0 || len(filtered) != n || fs <= 0 {
		return &d.det
	}
	learn := min(d.learn, n)
	for j := range learn {
		d.observe(filtered[j], integrated[j])
	}
	d.seed(learn)
	d.fwin, d.iwin, d.t = filtered, integrated, n
	d.advance(true)
	d.fwin, d.iwin = nil, nil
	return &d.det
}

// Finish flushes every decision held for lookahead — applying
// end-of-record window clamping — and returns the final Detection. The
// result aliases the detector's buffers and is valid until the next
// Reset. Finish is idempotent.
func (d *StreamDetector) Finish() *Detection {
	if d.fs <= 0 || d.done {
		d.done = true
		return &d.det
	}
	if d.t > 0 && !d.seeded {
		// Stream shorter than the learning window: learn from all of it.
		d.seed(d.t)
	}
	if d.seeded {
		d.advance(true)
	}
	d.done = true
	return &d.det
}

// Detection returns the decisions made so far (beats whose lookahead is
// complete). The result aliases the detector's buffers.
func (d *StreamDetector) Detection() *Detection { return &d.det }

// Discard drops the first events decision-trace entries and the first
// peaks accepted beats (Peaks and MWIPeaks advance together) from the
// Detection, compacting in place. The detector only ever appends to
// these slices — no decision reads emitted history back — so a
// long-lived consumer that has copied out a prefix can trim it to keep
// the detector's memory bounded over unbounded streams. Counts must not
// exceed the current lengths.
func (d *StreamDetector) Discard(events, peaks int) {
	if events > 0 {
		d.det.Events = d.det.Events[:copy(d.det.Events, d.det.Events[events:])]
	}
	if peaks > 0 {
		d.det.Peaks = d.det.Peaks[:copy(d.det.Peaks, d.det.Peaks[peaks:])]
		d.det.MWIPeaks = d.det.MWIPeaks[:copy(d.det.MWIPeaks, d.det.MWIPeaks[peaks:])]
	}
}

// observe folds one learning-window sample into the accumulators.
func (d *StreamDetector) observe(filtered, integrated int64) {
	if v := float64(integrated); v > d.maxI {
		d.maxI = v
	}
	d.sumI += float64(integrated)
	if v := absf(filtered); v > d.maxF {
		d.maxF = v
	}
	d.sumF += absf(filtered)
}

// seed computes the initial signal/noise estimates from the learning
// accumulators over the first learn samples.
func (d *StreamDetector) seed(learn int) {
	d.spki = 0.4 * d.maxI
	d.npki = 0.5 * d.sumI / float64(learn)
	d.spkf = 0.4 * d.maxF
	d.npkf = 0.5 * d.sumF / float64(learn)
	d.seeded = true
}

// advance examines candidates while their decision context is complete:
// index i needs integrated[i+1] (the local-maximum test) and filtered up
// to i+alignAhead (the peak search window); final mode clamps both to the
// end of the record.
func (d *StreamDetector) advance(final bool) {
	n := d.t
	last := n - 2
	if !final {
		last = min(last, n-1-d.alignAhead)
	}
	iw, base := d.iwin, d.base
	for i := d.cursor; i <= last; i++ {
		k := i - base
		if !(iw[k-1] < iw[k] && iw[k] >= iw[k+1]) {
			continue
		}
		v := iw[k]
		if i-d.lastQRS <= d.refractory {
			continue
		}

		// Locate the matching filtered peak near the MWI peak.
		fpos, fval := d.peakNear(i-d.searchWin, min(i+d.alignAhead, n-1))

		// T-wave discrimination inside 360 ms of the previous QRS.
		slope := -1.0 // not computed yet; see candidate
		if d.lastQRS >= 0 && i-d.lastQRS <= d.tWaveWin {
			if slope = d.slopeBefore(i); slope < 0.5*d.lastSlope {
				d.npki = 0.125*float64(v) + 0.875*d.npki
				d.npkf = 0.125*fval + 0.875*d.npkf
				d.det.Events = append(d.det.Events, Event{Kind: EventTWave, Index: i, Filtered: fpos, Value: v})
				continue
			}
		}

		c := candidate{i, v, fpos, fval, slope}
		if float64(v) > d.thrI() && fval > d.thrF() {
			// Alignment cross-check (Fig 13): the filtered peak must
			// precede the MWI peak within the search window; a peak that
			// trails it or sits at the window edge is a misclassified
			// artefact and the beat is omitted.
			if fpos > i || i-fpos >= d.searchWin {
				d.det.Events = append(d.det.Events, Event{Kind: EventMisaligned, Index: i, Filtered: fpos, Value: v})
				d.pending = append(d.pending, c)
				continue
			}
			d.accept(c, 0.125, EventAccepted)
			continue
		}

		// Noise.
		d.npki = 0.125*float64(v) + 0.875*d.npki
		d.npkf = 0.125*fval + 0.875*d.npkf
		d.det.Events = append(d.det.Events, Event{Kind: EventNoise, Index: i, Filtered: fpos, Value: v})
		d.pending = append(d.pending, c)

		// Searchback for a missed beat. The lowered threshold reads the
		// noise estimate just updated above.
		if d.lastQRS >= 0 && float64(i-d.lastQRS) > searchbackRR*d.rrMean {
			thr := 0.5 * d.thrI()
			bestIdx := -1
			for pi, p := range d.pending {
				if float64(p.val) > thr && p.fpos <= p.idx && p.idx-p.fpos < d.searchWin {
					if bestIdx < 0 || p.val > d.pending[bestIdx].val {
						bestIdx = pi
					}
				}
			}
			if bestIdx >= 0 {
				d.accept(d.pending[bestIdx], 0.25, EventSearchback)
			}
		}
	}
	d.cursor = max(d.cursor, last+1)
}

// thrI and thrF are the detection thresholds on the integrated and
// filtered signals.
func (d *StreamDetector) thrI() float64 { return d.npki + 0.25*(d.spki-d.npki) }
func (d *StreamDetector) thrF() float64 { return d.npkf + 0.25*(d.spkf-d.npkf) }

// accept records one detected QRS.
func (d *StreamDetector) accept(c candidate, weight float64, kind EventKind) {
	d.spki = weight*float64(c.val) + (1-weight)*d.spki
	d.spkf = weight*c.fval + (1-weight)*d.spkf
	if d.lastQRS >= 0 {
		d.rr[d.rrPos] = c.idx - d.lastQRS
		d.rrPos = (d.rrPos + 1) % len(d.rr)
		if d.rrLen < len(d.rr) {
			d.rrLen++
		}
		total := 0
		for _, v := range d.rr[:d.rrLen] {
			total += v
		}
		d.rrMean = float64(total) / float64(d.rrLen)
	}
	d.lastQRS = c.idx
	if c.slope < 0 {
		c.slope = d.slopeBefore(c.idx)
	}
	d.lastSlope = c.slope
	raw := c.fpos - filterDelay
	if raw < 0 {
		raw = 0
	}
	d.det.Peaks = append(d.det.Peaks, raw)
	d.det.MWIPeaks = append(d.det.MWIPeaks, c.idx)
	d.det.Events = append(d.det.Events, Event{Kind: kind, Index: c.idx, Filtered: c.fpos, Value: c.val})
	d.pending = d.pending[:0]
}

// peakNear returns the position and absolute value of the largest
// filtered sample in [lo, hi] (lo clamped to 0); the first maximum wins.
func (d *StreamDetector) peakNear(lo, hi int) (int, float64) {
	lo = max(lo, 0)
	best, bestV := lo, -1.0
	for j, x := range d.fwin[lo-d.base : hi+1-d.base] {
		if v := absf(x); v > bestV {
			best, bestV = lo+j, v
		}
	}
	return best, bestV
}

// slopeBefore returns the maximum rising slope of the integrated signal
// in the 75 ms window before idx (the Pan-Tompkins T-wave discriminator).
func (d *StreamDetector) slopeBefore(idx int) float64 {
	lo := max(idx-d.slopeWin, 1)
	w := d.iwin[lo-1-d.base : idx+1-d.base]
	maxS := 0.0
	for j := 1; j < len(w); j++ {
		if s := float64(w[j] - w[j-1]); s > maxS {
			maxS = s
		}
	}
	return maxS
}
