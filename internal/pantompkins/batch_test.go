package pantompkins

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dsp"
)

func batchTestConfigs() []Config {
	b9 := Config{}
	for i, k := range []int{10, 12, 2, 8, 16} {
		b9.Stage[i] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	ama1 := Config{}
	for i, k := range []int{8, 8, 2, 4, 8} {
		ama1.Stage[i] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd1, Mul: approx.AppMultV1}
	}
	return []Config{AccurateConfig(), b9, ama1}
}

// TestPipelineBatchMatchesStream drives many same-config sessions
// through PipelineBatch rounds — ragged block sizes, streams sitting
// rounds out, widths past kernel.MaxBatch so chunking runs — with each
// round's filtered/integrated outputs fed into per-stream incremental
// detectors, and checks every sample and the full decision trace
// against the scalar Stream.Push path, in both kernel modes.
func TestPipelineBatchMatchesStream(t *testing.T) {
	const fs = 360
	for _, mode := range []bool{true, false} {
		mode := mode
		t.Run(fmt.Sprintf("kernels=%v", mode), func(t *testing.T) {
			prev := kernel.SetEnabled(mode)
			defer kernel.SetEnabled(prev)
			rng := rand.New(rand.NewSource(41))
			widths := []int{1, 3, 70}
			if testing.Short() || !mode {
				widths = []int{3}
			}
			for _, cfg := range batchTestConfigs() {
				donor, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pb := NewPipelineBatch(donor)
				for _, width := range widths {
					// Scalar mirror sessions and batch-side sessions.
					scalar := make([]*Stream, width)
					pipes := make([]*Pipeline, width)
					dets := make([]*StreamDetector, width)
					sigs := make([][]int16, width)
					pos := make([]int, width)
					for s := 0; s < width; s++ {
						sp, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						scalar[s] = sp.Stream(fs)
						bp, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						pipes[s] = bp
						dets[s] = NewStreamDetector(fs)
						sig := make([]int16, 400+(s*37)%300)
						for i := range sig {
							sig[i] = int16(rng.Uint64())
						}
						sigs[s] = sig
					}
					roundPipes := make([]*Pipeline, 0, width)
					blocks := make([][]int16, 0, width)
					live := make([]int, 0, width)
					for round := 0; ; round++ {
						roundPipes = roundPipes[:0]
						blocks = blocks[:0]
						live = live[:0]
						remaining := 0
						for s := 0; s < width; s++ {
							left := len(sigs[s]) - pos[s]
							if left == 0 {
								continue
							}
							remaining++
							if (s+round)%5 == 0 && round < 6 {
								continue // churn: sat this round out
							}
							n := (s*7 + round*11) % 24
							if n > left {
								n = left
							}
							roundPipes = append(roundPipes, pipes[s])
							blocks = append(blocks, sigs[s][pos[s]:pos[s]+n])
							live = append(live, s)
						}
						if remaining == 0 {
							break
						}
						if len(roundPipes) == 0 {
							continue
						}
						filt, integ := pb.Run(roundPipes, blocks)
						for bi, s := range live {
							for i := range blocks[bi] {
								want := scalar[s].Push(blocks[bi][i])
								if filt[bi][i] != want.Filtered || integ[bi][i] != want.Integrated {
									t.Fatalf("cfg %v width %d stream %d sample %d: batch (%d,%d), scalar (%d,%d)",
										cfg, width, s, pos[s]+i, filt[bi][i], integ[bi][i], want.Filtered, want.Integrated)
								}
								dets[s].Push(filt[bi][i], integ[bi][i])
							}
							pos[s] += len(blocks[bi])
						}
					}
					for s := 0; s < width; s++ {
						want := scalar[s].Finish()
						got := dets[s].Finish()
						if len(got.Events) != len(want.Events) || len(got.Peaks) != len(want.Peaks) {
							t.Fatalf("cfg %v width %d stream %d: trace sizes (%d ev, %d peaks) vs scalar (%d, %d)",
								cfg, width, s, len(got.Events), len(got.Peaks), len(want.Events), len(want.Peaks))
						}
						for i := range want.Events {
							if got.Events[i] != want.Events[i] {
								t.Fatalf("cfg %v width %d stream %d event %d: %+v vs scalar %+v",
									cfg, width, s, i, got.Events[i], want.Events[i])
							}
						}
						for i := range want.Peaks {
							if got.Peaks[i] != want.Peaks[i] || got.MWIPeaks[i] != want.MWIPeaks[i] {
								t.Fatalf("cfg %v width %d stream %d peak %d: (%d,%d) vs scalar (%d,%d)",
									cfg, width, s, i, got.Peaks[i], got.MWIPeaks[i], want.Peaks[i], want.MWIPeaks[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestPipelineBatchConfigMismatch pins the panic contract: a stream
// whose configuration differs from the batch plan must be refused, not
// silently evaluated with the wrong arithmetic.
func TestPipelineBatchConfigMismatch(t *testing.T) {
	donor, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	pb := NewPipelineBatch(donor)
	other := AccurateConfig()
	other.Stage[LPF] = dsp.ArithConfig{LSBs: 4, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	op, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("config mismatch did not panic")
		}
	}()
	pb.Run([]*Pipeline{op}, [][]int16{{1, 2, 3}})
}

// TestPipelineBatchRunFrom checks the start-at-stage entry: after a
// whole-record run of one design, RunFrom over the same blocks for a
// design sharing its leading stages must give every stream exactly the
// signals a fresh whole-record Run of that design gives, across widths
// past kernel.MaxBatch and in both kernel modes; starting past DER or
// over a different geometry must panic.
func TestPipelineBatchRunFrom(t *testing.T) {
	b9 := batchTestConfigs()[1]
	newHPF := b9
	newHPF.Stage[HPF].LSBs = 4
	newDER := newHPF
	newDER.Stage[DER].LSBs = 4
	newDER.Stage[MWI] = dsp.ArithConfig{}
	for _, mode := range []bool{true, false} {
		prev := kernel.SetEnabled(mode)
		rng := rand.New(rand.NewSource(59))
		width := 70
		if !mode {
			width = 3 // the bit-serial oracle is slow; chunking is mode-blind
		}
		blocks := make([][]int16, width)
		for s := range blocks {
			blocks[s] = make([]int16, 300+(s*29)%200)
			for i := range blocks[s] {
				blocks[s][i] = int16(rng.Uint64() >> 4)
			}
		}
		pipesOf := func(cfg Config) []*Pipeline {
			pipes := make([]*Pipeline, len(blocks))
			for s := range pipes {
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pipes[s] = p
			}
			return pipes
		}
		donor, err := New(b9)
		if err != nil {
			t.Fatal(err)
		}
		pb := NewPipelineBatch(donor)
		for _, step := range []struct {
			cfg   Config
			start Stage
		}{{b9, LPF}, {newHPF, HPF}, {newDER, DER}, {newDER, DER}, {b9, HPF}} {
			if pb.Config() != step.cfg {
				d, err := New(step.cfg)
				if err != nil {
					t.Fatal(err)
				}
				pb.Reset(d)
			}
			filt, integ := pb.RunFrom(step.start, pipesOf(step.cfg), blocks)
			ref, err := New(step.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s, block := range blocks {
				ref.Reset()
				want := ref.Run(block)
				for i := range block {
					if filt[s][i] != want.Filtered[i] || integ[s][i] != want.Integrated[i] {
						t.Fatalf("kernels=%v cfg %v from %v stream %d sample %d: (%d,%d), fresh run (%d,%d)",
							mode, step.cfg, step.start, s, i, filt[s][i], integ[s][i], want.Filtered[i], want.Integrated[i])
					}
				}
			}
		}
		kernel.SetEnabled(prev)
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	donor, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	pb := NewPipelineBatch(donor)
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	pb.Run([]*Pipeline{p}, [][]int16{{1, 2, 3}})
	p.Reset()
	mustPanic("start at SQR", func() { pb.RunFrom(SQR, []*Pipeline{p}, [][]int16{{1, 2, 3}}) })
	mustPanic("start at HPF over a new geometry", func() { pb.RunFrom(HPF, []*Pipeline{p}, [][]int16{{1, 2, 3, 4}}) })
}

// TestStreamDetectorDiscard checks that trimming consumed decisions
// between pushes leaves the concatenated outputs identical to an
// untrimmed detector, and that memory-bounding consumers see every
// event exactly once.
func TestStreamDetectorDiscard(t *testing.T) {
	const fs = 360
	rng := rand.New(rand.NewSource(53))
	p, err := New(AccurateConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStreamDetector(fs)
	trimmed := NewStreamDetector(fs)
	var gotEvents []Event
	var gotPeaks, gotMWI []int
	for i := 0; i < 4000; i++ {
		s := p.Push(int16(rng.Uint64() >> 4))
		ref.Push(s.Filtered, s.Integrated)
		trimmed.Push(s.Filtered, s.Integrated)
		if i%97 == 0 {
			d := trimmed.Detection()
			gotEvents = append(gotEvents, d.Events...)
			gotPeaks = append(gotPeaks, d.Peaks...)
			gotMWI = append(gotMWI, d.MWIPeaks...)
			trimmed.Discard(len(d.Events), len(d.Peaks))
		}
	}
	d := trimmed.Finish()
	gotEvents = append(gotEvents, d.Events...)
	gotPeaks = append(gotPeaks, d.Peaks...)
	gotMWI = append(gotMWI, d.MWIPeaks...)
	want := ref.Finish()
	if len(gotEvents) != len(want.Events) || len(gotPeaks) != len(want.Peaks) {
		t.Fatalf("trimmed detector emitted %d events / %d peaks, untrimmed %d / %d",
			len(gotEvents), len(gotPeaks), len(want.Events), len(want.Peaks))
	}
	if len(want.Peaks) == 0 {
		t.Fatal("test signal produced no beats; pick a better seed")
	}
	for i := range want.Events {
		if gotEvents[i] != want.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, gotEvents[i], want.Events[i])
		}
	}
	for i := range want.Peaks {
		if gotPeaks[i] != want.Peaks[i] || gotMWI[i] != want.MWIPeaks[i] {
			t.Fatalf("peak %d: (%d,%d) vs (%d,%d)", i, gotPeaks[i], gotMWI[i], want.Peaks[i], want.MWIPeaks[i])
		}
	}
}
