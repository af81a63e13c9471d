package pantompkins

import (
	"encoding/binary"
	"testing"

	"github.com/xbiosip/xbiosip/internal/ecg"
)

// appendPairs encodes filtered/integrated sample pairs the way FuzzDetect
// decodes them: 16 little-endian bytes per sample, filtered first.
func appendPairs(b []byte, filtered, integrated []int64) []byte {
	for i := range integrated {
		b = binary.LittleEndian.AppendUint64(b, uint64(filtered[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(integrated[i]))
	}
	return b
}

// FuzzDetect is a differential fuzz target over the detector: for
// arbitrary int64 filtered/integrated signals and a sampling rate in
// [1, 1000] Hz, the reference detector, whole-record PeakDetector.Detect
// and a pushed StreamDetector must produce identical Detections. Low
// rates shrink the learning window to a few samples, so short inputs
// already cross the pushed window's compaction points.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{}, uint16(359))
	f.Add(appendPairs(nil, []int64{0, 5, -9, 2}, []int64{1, 3, 2, 4}), uint16(0))
	p, err := New(AccurateConfig())
	if err != nil {
		f.Fatal(err)
	}
	rec, err := ecg.NSRDBRecord(0, 300)
	if err != nil {
		f.Fatal(err)
	}
	out := p.Run(rec.Samples)
	f.Add(appendPairs(nil, out.Filtered, out.Integrated), uint16(9))
	f.Add(appendPairs(nil, out.Filtered, out.Integrated), uint16(29))
	var pd PeakDetector
	f.Fuzz(func(t *testing.T, data []byte, fsRaw uint16) {
		fs := 1 + int(fsRaw)%1000
		// The searchback scans every candidate rejected since the last
		// beat, so a long beatless input costs quadratic time; capping the
		// length keeps each execution in the millisecond range.
		n := min(len(data)/16, 4096)
		filtered := make([]int64, n)
		integrated := make([]int64, n)
		for i := range n {
			filtered[i] = int64(binary.LittleEndian.Uint64(data[16*i:]))
			integrated[i] = int64(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		want := refDetect(filtered, integrated, fs)
		requireSameDetection(t, "PeakDetector", want, pd.Detect(filtered, integrated, fs))
		requireSameDetection(t, "StreamDetector", want, pushAll(NewStreamDetector(fs), filtered, integrated))
	})
}
