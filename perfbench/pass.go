package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"repro/internal/clusteros"
	"repro/internal/core"
	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
)

// opResult is the outcome of one operation: a kernel run, a query, or an
// open-loop transaction.
type opResult struct {
	name     string
	cycles   sim.Time // simulated completion cycles; the cap when failed
	finished bool
	sloMet   bool
	err      string // why the operation failed
	check    string // why the workload's own correctness check failed
	refErr   string // why the memory digest does not match its reference
	digest   uint64 // final shared memory; 0 when the op has no memory check
}

func (o *opResult) failed() bool { return o.err != "" || o.check != "" || o.refErr != "" }

// why explains a failure.
func (o *opResult) why() string { return o.err + o.check + o.refErr }

// refKey names the reference digest an operation's memory must match:
// the runs of one assembly kernel under different fault seeds share the
// fault-free kernel's digest.
func (o *opResult) refKey(workload string) string {
	name, _, _ := strings.Cut(o.name, "/")
	return workload + "/" + name
}

// span is one timed call from the benchmark into a layer's public API.
// Spans of one operation share op; -1 marks pass-wide work.
type span struct {
	Pass  int    `json:"pass"`
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the pass began
	End   int64  `json:"end_ns"`
}

// passResult is everything one pass measured.
type passResult struct {
	traced bool
	ops    []opResult
	spans  []span

	stats core.Stats
	net   memchannel.Stats
	ctxSw int64
	// sim holds workload-specific simulated per-layer values (oracledb,
	// load, rewriter), summed over the pass.
	sim map[string]float64

	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPauseNs           uint64

	traces [][]byte         // traced passes: each system's JSONL trace
	tr     *analyze.Summary // traced passes: the traces' merged summary
}

// spanSum returns the total host nanoseconds of spans whose name has the
// given prefix.
func (r *passResult) spanSum(prefix string) int64 {
	var t int64
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) {
			t += s.End - s.Start
		}
	}
	return t
}

// passCtx is handed to a workload for one pass.
type passCtx struct {
	seed  int64
	index int
	res   *passResult
	start time.Time
	buf   bytes.Buffer // the current system's trace (traced passes)
}

// runPass runs one pass of w and checks each operation's final memory
// against refs.
func runPass(w workload, seed int64, index int, traced bool, refs map[string]string) *passResult {
	c := &passCtx{seed: seed, index: index, res: &passResult{traced: traced, sim: map[string]float64{}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.start = time.Now()
	w.pass(c)
	runtime.ReadMemStats(&after)
	c.res.allocBytes = after.TotalAlloc - before.TotalAlloc
	c.res.mallocs = after.Mallocs - before.Mallocs
	c.res.gcCycles = after.NumGC - before.NumGC
	c.res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	checkReferences(w.name, c.res.ops, refs)
	return c.res
}

func (c *passCtx) beginOp(name string, cap sim.Time) int {
	c.res.ops = append(c.res.ops, opResult{name: name, cycles: cap})
	return len(c.res.ops) - 1
}

func (c *passCtx) fail(op int, err error) { c.res.ops[op].err = err.Error() }

func (c *passCtx) mismatch(op int, msg string) { c.res.ops[op].check = msg }

func (c *passCtx) done(op int, cycles sim.Time, digest uint64) {
	o := &c.res.ops[op]
	o.finished, o.cycles, o.digest = true, cycles, digest
	o.sloMet = !o.failed()
}

// span times fn as one call into a layer.
func (c *passCtx) span(op int, name string, fn func()) {
	s := span{Pass: c.index, Op: op, Name: name, Start: time.Since(c.start).Nanoseconds()}
	fn()
	s.End = time.Since(c.start).Nanoseconds()
	c.res.spans = append(c.res.spans, s)
}

func (c *passCtx) run(op int, fn func() error) error {
	var err error
	c.span(op, "run", func() { err = fn() })
	return err
}

// withTrace adds an in-memory tracer to a traced pass's systems.
func (c *passCtx) withTrace(opts []core.Option) []core.Option {
	if !c.res.traced {
		return opts
	}
	c.buf.Reset()
	return append(opts, core.WithTrace(trace.New(64, &c.buf)))
}

func (c *passCtx) build(op int, opts ...core.Option) *core.System {
	var sys *core.System
	c.span(op, "setup.build", func() { sys = core.Build(c.withTrace(opts)...) })
	return sys
}

// buildOS is build for systems that need the cluster OS layer.
func (c *passCtx) buildOS(op int, opts ...core.Option) (*core.System, *clusteros.OS) {
	var sys *core.System
	var osl *clusteros.OS
	c.span(op, "setup.build", func() { sys, osl = clusteros.Build(c.withTrace(opts)...) })
	return sys, osl
}

// absorb adds a finished system's counters to the pass and, on a traced
// pass, folds its trace into the pass summary.
func (c *passCtx) absorb(sys *core.System) {
	st := sys.AggregateStats()
	c.res.stats.Add(&st)
	ns := sys.Net.Stats()
	c.res.net.Messages += ns.Messages
	c.res.net.Bytes += ns.Bytes
	c.res.net.IntraMessages += ns.IntraMessages
	c.res.net.IntraBytes += ns.IntraBytes
	c.res.net.Drops += ns.Drops
	c.res.net.Dups += ns.Dups
	c.res.ctxSw += sys.Eng.ContextSwitches()
	if c.res.traced {
		c.res.traces = append(c.res.traces, bytes.Clone(c.buf.Bytes()))
		c.buf.Reset()
	}
}

// analyzeTraces reads a traced pass's traces with the repository's trace
// analyzer. It runs after the pass so the analysis stays out of the pass's
// CPU profile.
func analyzeTraces(p *passResult) error {
	p.tr = emptySummary()
	for _, t := range p.traces {
		s, err := analyze.Read(bytes.NewReader(t))
		if err != nil {
			return fmt.Errorf("trace analysis: %w", err)
		}
		mergeSummary(p.tr, s)
	}
	p.traces = nil
	return nil
}

func emptySummary() *analyze.Summary {
	return &analyze.Summary{Counters: map[string]int64{}, MsgHandleDelay: map[string]int64{}, MsgHandles: map[string]int64{}}
}

// mergeSummary adds the parts of src the benchmark reports to dst.
func mergeSummary(dst, src *analyze.Summary) {
	dst.Events += src.Events
	for _, m := range []struct{ d, s map[string]int64 }{
		{dst.Counters, src.Counters}, {dst.MsgHandleDelay, src.MsgHandleDelay}, {dst.MsgHandles, src.MsgHandles},
	} {
		for k, v := range m.s {
			m.d[k] += v
		}
	}
}

// memDigest is an FNV-1a hash of a shared-memory snapshot.
func memDigest(words []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
