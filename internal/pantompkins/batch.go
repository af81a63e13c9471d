package pantompkins

import (
	"fmt"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/dsp"
)

// PipelineBatch evaluates many same-config pipelines' pending blocks as
// batch rounds: the three FIR stages run as kernel.BatchChain rounds
// over one shared compiled plan (per-stream delay lines supply the
// history, so mid-stream continuation is exact), the squarer runs as
// one slice kernel over the packed round, and the integrator slides
// per stream. Every stream's outputs are bit-identical to pushing its
// block through Pipeline.Push one sample at a time — the batch buys
// dispatch amortization, not different arithmetic — which the
// equivalence tests sweep over widths, churn and both kernel modes.
//
// A PipelineBatch owns the donor pipeline that compiled the shared
// plans plus reusable packed scratch, so one instance per draining
// goroutine runs allocation-free in steady state. The scratch keeps the
// last run's low-passed and filtered signals until the next run, which
// RunFrom exploits: whole-record evaluations of designs that share
// leading stage configurations (one design-space evaluation after
// another) skip the shared stages and read their outputs back.
type PipelineBatch struct {
	cfg   Config
	donor *Pipeline
	lpf   *kernel.BatchChain
	hpf   *kernel.BatchChain
	der   *kernel.BatchChain

	lpfShift, hpfShift, derShift uint

	total int // samples in the last run (RunFrom's geometry guard)

	xs []int64 // widened raw samples, packed stream-major
	lp []int64 // low-passed, same geometry
	ft []int64 // filtered (HPF output), same geometry
	dv []int64 // derivative, squared in place, same geometry
	ig []int64 // integrated, same geometry

	ins  []kernel.BatchIn
	ftV  [][]int64
	igV  [][]int64
	offs []int
}

// NewPipelineBatch builds a batch evaluator for pipelines sharing p's
// configuration. p becomes the plan donor: its compiled stage chains
// are the shared batch plans (chains are immutable and stateless, so
// sharing them across streams is exact); its delay lines are never
// touched by Run.
func NewPipelineBatch(p *Pipeline) *PipelineBatch {
	b := &PipelineBatch{}
	b.Reset(p)
	return b
}

// Reset rebinds the batch to a new donor pipeline — typically a new
// configuration — while keeping every packed scratch buffer, so a
// caller cycling through many configurations (one design-space
// evaluation after another) allocates no round scratch per design.
func (b *PipelineBatch) Reset(p *Pipeline) {
	b.cfg = p.cfg
	b.donor = p
	if b.lpf == nil {
		b.lpf = p.lpf.Chain().NewBatch()
		b.hpf = p.hpf.Chain().NewBatch()
		b.der = p.der.Chain().NewBatch()
	} else {
		b.lpf.Rebind(p.lpf.Chain())
		b.hpf.Rebind(p.hpf.Chain())
		b.der.Rebind(p.der.Chain())
	}
	b.lpfShift = uint(p.lpf.OutShift())
	b.hpfShift = uint(p.hpf.OutShift())
	b.derShift = uint(p.der.OutShift())
}

// Config returns the configuration the batch's plans were compiled for.
func (b *PipelineBatch) Config() Config { return b.cfg }

// Run advances each pipeline by its block: pipes[i] consumes blocks[i]
// exactly as if every sample had gone through pipes[i].Push. It returns
// per-stream views of the filtered and integrated outputs (the pair the
// detector consumes), valid until the next Run. Pipes must be distinct,
// share the batch's configuration, and not be the donor; empty blocks
// are legal (the stream sits the round out). Rounds wider than
// kernel.MaxBatch are chunked internally, so any width works.
func (b *PipelineBatch) Run(pipes []*Pipeline, blocks [][]int16) (filtered, integrated [][]int64) {
	return b.run(LPF, pipes, blocks)
}

// RunFrom is Run for whole-record evaluations from reset pipelines that
// starts at stage start: LPF runs every stage, HPF reuses the previous
// run's low-passed signals, DER its filtered signals. (Nothing later can
// be reused: the derivative buffer is squared in place.) The caller
// guarantees what the batch cannot check: the previous run consumed the
// same blocks from reset pipelines, with the same configuration of
// every skipped stage, compiled in the same kernel mode. The outputs
// are then bit-identical to Run's. Skipped stages' delay lines are not
// advanced, so the pipes are no mid-stream continuation afterwards;
// Reset them before reuse.
func (b *PipelineBatch) RunFrom(start Stage, pipes []*Pipeline, blocks [][]int16) (filtered, integrated [][]int64) {
	if start > DER {
		panic(fmt.Sprintf("pantompkins: PipelineBatch cannot start at %v", start))
	}
	return b.run(start, pipes, blocks)
}

// run is Run/RunFrom: it evaluates the stages from start on.
func (b *PipelineBatch) run(start Stage, pipes []*Pipeline, blocks [][]int16) (filtered, integrated [][]int64) {
	if len(pipes) != len(blocks) {
		panic("pantompkins: PipelineBatch pipes/blocks length mismatch")
	}
	total := 0
	for i, p := range pipes {
		if p.cfg != b.cfg {
			panic(fmt.Sprintf("pantompkins: PipelineBatch config mismatch: stream %d has %v, batch compiled %v",
				i, p.cfg, b.cfg))
		}
		total += len(blocks[i])
	}
	if start > LPF && total != b.total {
		panic(fmt.Sprintf("pantompkins: PipelineBatch starting at %v over %d samples, previous run had %d",
			start, total, b.total))
	}
	b.total = total
	if cap(b.xs) < total {
		b.xs = make([]int64, total)
		b.lp = make([]int64, total)
		b.ft = make([]int64, total)
		b.dv = make([]int64, total)
		b.ig = make([]int64, total)
	}
	b.ftV = resizeViews(b.ftV, len(pipes))
	b.igV = resizeViews(b.igV, len(pipes))
	if cap(b.offs) < len(pipes) {
		b.offs = make([]int, len(pipes))
	}
	offs := b.offs[:len(pipes)]
	p := 0
	for i, block := range blocks {
		offs[i] = p
		if start == LPF {
			for j, s := range block {
				b.xs[p+j] = int64(s)
			}
		}
		p += len(block)
	}
	for off := 0; off < len(pipes); off += kernel.MaxBatch {
		end := off + kernel.MaxBatch
		if end > len(pipes) {
			end = len(pipes)
		}
		b.runChunk(start, pipes[off:end], blocks[off:end], offs[off:end])
	}
	for i := range pipes {
		n := len(blocks[i])
		b.ftV[i] = b.ft[offs[i] : offs[i]+n]
		b.igV[i] = b.ig[offs[i] : offs[i]+n]
	}
	return b.ftV, b.igV
}

// runChunk runs one ≤MaxBatch-wide round through the stages from start
// on.
func (b *PipelineBatch) runChunk(start Stage, pipes []*Pipeline, blocks [][]int16, offs []int) {
	if cap(b.ins) < len(pipes) {
		b.ins = make([]kernel.BatchIn, len(pipes))
	}
	ins := b.ins[:len(pipes)]

	// Stage A: low pass over the widened raw samples.
	if start <= LPF {
		for i, p := range pipes {
			n := len(blocks[i])
			ins[i] = kernel.BatchIn{
				Hist: p.lpf.History(),
				Xs:   b.xs[offs[i] : offs[i]+n],
				Dst:  b.lp[offs[i] : offs[i]+n],
			}
		}
		b.lpf.Run(ins, b.lpfShift, dsp.SampleWidth)
		for i, p := range pipes {
			p.lpf.Advance(ins[i].Xs)
		}
	}

	// Stage B: high pass over the low-passed block.
	if start <= HPF {
		for i, p := range pipes {
			n := len(blocks[i])
			ins[i] = kernel.BatchIn{
				Hist: p.hpf.History(),
				Xs:   b.lp[offs[i] : offs[i]+n],
				Dst:  b.ft[offs[i] : offs[i]+n],
			}
		}
		b.hpf.Run(ins, b.hpfShift, dsp.SampleWidth)
		for i, p := range pipes {
			p.hpf.Advance(ins[i].Xs)
		}
	}

	// Stage C: derivative over the filtered block.
	for i, p := range pipes {
		n := len(blocks[i])
		ins[i] = kernel.BatchIn{
			Hist: p.der.History(),
			Xs:   b.ft[offs[i] : offs[i]+n],
			Dst:  b.dv[offs[i] : offs[i]+n],
		}
	}
	b.der.Run(ins, b.derShift, dsp.SampleWidth)
	for i, p := range pipes {
		p.der.Advance(ins[i].Xs)
	}

	// Stages D and E: square in place, then integrate per stream (the
	// integrator's ring continues each stream's window exactly).
	for i, p := range pipes {
		n := len(blocks[i])
		dv := b.dv[offs[i] : offs[i]+n]
		p.sqr.ProcessBlock(dv, dv)
		p.mwi.ProcessBlock(b.ig[offs[i]:offs[i]+n], dv)
	}
}

// resizeViews returns a view slice of length n, reusing v's backing
// array when it is large enough.
func resizeViews(v [][]int64, n int) [][]int64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([][]int64, n)
}
