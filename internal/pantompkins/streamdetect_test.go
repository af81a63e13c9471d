package pantompkins

import (
	"fmt"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
)

// pushAll streams both detector inputs sample by sample and returns the
// finished detection.
func pushAll(d *StreamDetector, filtered, integrated []int64) *Detection {
	for i := range integrated {
		d.Push(filtered[i], integrated[i])
	}
	return d.Finish()
}

// pushDiscarding streams both detector inputs like pushAll, but copies out
// and Discards the decisions made so far after every every-th push, the
// way a memory-bounding consumer does; it returns the concatenation of
// everything emitted.
func pushDiscarding(d *StreamDetector, filtered, integrated []int64, every int) *Detection {
	var all Detection
	drain := func(det *Detection) {
		all.Peaks = append(all.Peaks, det.Peaks...)
		all.MWIPeaks = append(all.MWIPeaks, det.MWIPeaks...)
		all.Events = append(all.Events, det.Events...)
		d.Discard(len(det.Events), len(det.Peaks))
	}
	for i := range integrated {
		d.Push(filtered[i], integrated[i])
		if i%every == 0 {
			drain(d.Detection())
		}
	}
	drain(d.Finish())
	return &all
}

// requireSameDetection compares every field of two detections, including
// the full event trace and its order.
func requireSameDetection(t *testing.T, label string, want Detection, got *Detection) {
	t.Helper()
	if len(got.Peaks) != len(want.Peaks) || len(got.MWIPeaks) != len(want.MWIPeaks) || len(got.Events) != len(want.Events) {
		t.Fatalf("%s: found %d/%d/%d peaks/MWI/events, reference %d/%d/%d",
			label, len(got.Peaks), len(got.MWIPeaks), len(got.Events),
			len(want.Peaks), len(want.MWIPeaks), len(want.Events))
	}
	for i := range want.Peaks {
		if got.Peaks[i] != want.Peaks[i] || got.MWIPeaks[i] != want.MWIPeaks[i] {
			t.Fatalf("%s: peak %d = (%d,%d), reference (%d,%d)", label, i,
				got.Peaks[i], got.MWIPeaks[i], want.Peaks[i], want.MWIPeaks[i])
		}
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d = %+v, reference %+v", label, i, got.Events[i], want.Events[i])
		}
	}
}

// fig11SweepConfigs enumerates the configurations the Fig. 11 exploration
// visits: for each stage-count prefix, every single-stage candidate of the
// phase-wise Algorithm 1 over the default LSB lists with the paper's
// module pair — a superset of any actual run's trace (the algorithm
// explores a phase until its constraint filter stops it).
func fig11SweepConfigs() []Config {
	lsbs := map[Stage][]int{}
	for _, s := range Stages {
		var l []int
		for k := MaxLSBs[s]; k >= 0; k -= 2 {
			l = append(l, k)
		}
		lsbs[s] = l
	}
	seen := map[string]bool{}
	var cfgs []Config
	add := func(c Config) {
		if key := c.String(); !seen[key] {
			seen[key] = true
			cfgs = append(cfgs, c)
		}
	}
	add(AccurateConfig())
	// Phase p approximates stage p on top of a base that fixes the best
	// previous stages; sweeping each stage independently over its list
	// (plus pairwise combinations of adjacent phases' picks) covers every
	// candidate Algorithm 1 can visit without re-running the search.
	for _, s := range Stages {
		for _, k := range lsbs[s] {
			var c Config
			if k > 0 {
				c.Stage[s] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
			}
			add(c)
		}
	}
	// Mixed multi-stage designs representative of accepted phase results
	// (the paper's B-style vectors).
	for _, ks := range [][NumStages]int{
		{10, 12, 2, 8, 16},
		{16, 16, 4, 8, 16},
		{2, 2, 2, 2, 2},
		{8, 0, 4, 0, 16},
	} {
		var c Config
		for i, s := range Stages {
			if ks[i] > 0 {
				c.Stage[s] = dsp.ArithConfig{LSBs: ks[i], Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
			}
		}
		add(c)
	}
	return cfgs
}

// TestStreamDetectorMatchesDetectSweep proves both feeders of the
// decision loop — whole-record PeakDetector.Detect and pushed
// StreamDetector — identical to the reference detector (peaks, MWI
// indices and the complete event trace) on every bundled NSRDB record
// for the Fig. 11 sweep's configurations.
func TestStreamDetectorMatchesDetectSweep(t *testing.T) {
	configs := fig11SweepConfigs()
	records := ecg.NumNSRDBRecords
	samples := 2400
	if testing.Short() {
		records, samples = 4, 1600
	}
	var recs []*ecg.Record
	for r := 0; r < records; r++ {
		rec, err := ecg.NSRDBRecord(r, samples)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	var pd PeakDetector
	for _, cfg := range configs {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sd := NewStreamDetector(recs[0].FS)
		var out Outputs
		for _, rec := range recs {
			p.RunInto(&out, rec.Samples)
			label := cfg.String() + "/" + rec.Name
			want := refDetect(out.Filtered, out.Integrated, rec.FS)
			requireSameDetection(t, label+"/PeakDetector", want, pd.Detect(out.Filtered, out.Integrated, rec.FS))
			sd.Reset()
			requireSameDetection(t, label+"/StreamDetector", want, pushAll(sd, out.Filtered, out.Integrated))
		}
	}
}

// TestStreamMatchesProcess drives the full streaming path — raw samples
// through Pipeline.Stream — and demands the detection equal the batch
// Process result end to end.
func TestStreamMatchesProcess(t *testing.T) {
	rec := testRecord(t, 4000)
	for name, cfg := range streamConfigs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := p.Process(rec)

			sp, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := sp.Stream(rec.FS)
			for _, x := range rec.Samples {
				st.Push(x)
			}
			requireSameDetection(t, name, want.Detection, st.Finish())
		})
	}
}

// TestStreamDetectorDegenerateInputs pins the degenerate-input contract
// of the detector's two feeders — empty input, a single sample, a stream
// shorter than the learning window, fs = 0 and mismatched-length batch
// inputs — and the pushed window's compaction boundary: stream lengths
// around the first compaction at 200 and 360 Hz, one that compacts
// several times and one with Discard calls between pushes. Detect,
// PeakDetector.Detect and StreamDetector must all equal the reference.
func TestStreamDetectorDegenerateInputs(t *testing.T) {
	short := make([]int64, 120) // shorter than the 2 s learning window
	for i := range short {
		short[i] = int64((i % 7) * 100)
	}
	type inputCase struct {
		name                 string
		filtered, integrated []int64
		fs                   int
		streamable           bool // expressible as a stream (equal lengths)
		discardEvery         int  // > 0: Discard after every this many pushes
	}
	cases := []inputCase{
		{"nil-nil", nil, nil, 360, true, 0},
		{"empty", []int64{}, []int64{}, 360, true, 0},
		{"single-sample", []int64{42}, []int64{99}, 360, true, 0},
		{"two-samples", []int64{1, 2}, []int64{3, 4}, 360, true, 0},
		{"short-record", short, short, 360, true, 0},
		{"fs-zero", short, short, 0, true, 0},
		{"fs-negative", short, short, -5, true, 0},
		{"mismatched", short, short[:50], 360, false, 0},
	}
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := p.Run(testRecord(t, 4000).Samples)
	for _, fs := range []int{200, 360} {
		// The window keeps w samples and compacts when windowSlack more
		// have been appended: the first compaction runs on push w+slack.
		w := int(learnS*float64(fs)) + int(alignAheadS*float64(fs)) + 4
		for _, n := range []int{w - 1, w, w + windowSlack - 1, w + windowSlack, w + windowSlack + 1, w + 5*windowSlack + 7} {
			cases = append(cases, inputCase{fmt.Sprintf("fs%d-n%d", fs, n), out.Filtered[:n], out.Integrated[:n], fs, true, 0})
		}
		cases = append(cases, inputCase{fmt.Sprintf("fs%d-discard", fs), out.Filtered, out.Integrated, fs, true, 37})
	}
	var pd PeakDetector
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refDetect(tc.filtered, tc.integrated, tc.fs)
			requireSameDetection(t, "Detect", want, ptr(Detect(tc.filtered, tc.integrated, tc.fs)))
			requireSameDetection(t, "PeakDetector", want, pd.Detect(tc.filtered, tc.integrated, tc.fs))
			if !tc.streamable {
				// Mismatched lengths cannot arise on the streaming API;
				// whole-record detection defines them as empty.
				if len(want.Peaks) != 0 || len(want.Events) != 0 {
					t.Fatalf("mismatched-length reference returned %d peaks, want empty", len(want.Peaks))
				}
				return
			}
			sd := NewStreamDetector(tc.fs)
			if tc.discardEvery > 0 {
				requireSameDetection(t, "StreamDetector/Discard", want, pushDiscarding(sd, tc.filtered, tc.integrated, tc.discardEvery))
				return
			}
			got := pushAll(sd, tc.filtered, tc.integrated)
			requireSameDetection(t, "StreamDetector", want, got)
			// Finish is idempotent and Reset restarts cleanly.
			requireSameDetection(t, "StreamDetector/Finish-again", want, sd.Finish())
			sd.Reset()
			requireSameDetection(t, "StreamDetector/after-Reset", want, pushAll(sd, tc.filtered, tc.integrated))
		})
	}
}

// ptr returns a pointer to a copy of v.
func ptr[T any](v T) *T { return &v }

// TestStreamDetectorLiveView checks the partial Detection view never
// reports a beat the whole-record pass would not: every prefix of the
// streamed decisions is a prefix of the final ones.
func TestStreamDetectorLiveView(t *testing.T) {
	rec := testRecord(t, 3000)
	p, err := New(streamConfigs(t)["b9-mixed"])
	if err != nil {
		t.Fatal(err)
	}
	out := p.Run(rec.Samples)
	want := refDetect(out.Filtered, out.Integrated, rec.FS)

	sd := NewStreamDetector(rec.FS)
	seen := 0
	for i := range out.Filtered {
		sd.Push(out.Filtered[i], out.Integrated[i])
		live := sd.Detection()
		if len(live.Peaks) < seen {
			t.Fatalf("live peak count shrank at sample %d", i)
		}
		seen = len(live.Peaks)
		if len(live.Peaks) > len(want.Peaks) {
			t.Fatalf("live view reports %d peaks, final detection has %d", len(live.Peaks), len(want.Peaks))
		}
		for j := 0; j < len(live.Peaks); j++ {
			if live.Peaks[j] != want.Peaks[j] {
				t.Fatalf("live peak %d = %d, want %d", j, live.Peaks[j], want.Peaks[j])
			}
		}
	}
	sd.Finish()
}
