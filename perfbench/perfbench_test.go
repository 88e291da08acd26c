package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/rewriter"
	"repro/internal/workloads"
)

// smallAsm is asm-lossy with two fault seeds per kernel, for fast tests.
var smallAsm = workload{name: "asm-lossy", pass: func(c *passCtx) { asmLossy(c, 2) }}

func refs(t *testing.T) map[string]string {
	t.Helper()
	r, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSimMetricsRepeatExactly(t *testing.T) {
	a := runPass(smallAsm, 7, 0, false, refs(t))
	b := runPass(smallAsm, 7, 1, false, refs(t))
	if simKey(a) != simKey(b) {
		t.Fatalf("two passes of seed 7 differ:\n%s\n---\n%s", simKey(a), simKey(b))
	}
	if s := summarizeOps(a.ops); s.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", s.failed, s.ops, failureGroups(a.ops))
	}
	if c := runPass(smallAsm, 8, 0, false, refs(t)); simKey(c) == simKey(a) {
		t.Fatal("seeds 7 and 8 gave identical fault schedules; the seed does not reach the workload")
	}
}

func TestTracedPassMatchesUntraced(t *testing.T) {
	for _, w := range []workload{smallAsm, mustWorkload(t, "dss-eq")} {
		plain := runPass(w, 3, 0, false, refs(t))
		traced := runPass(w, 3, 1, true, refs(t))
		if err := analyzeTraces(traced); err != nil {
			t.Fatal(err)
		}
		if simKey(plain) != simKey(traced) {
			t.Errorf("%s: traced pass differs from the untraced one", w.name)
		}
		if traced.tr.Events == 0 || traced.tr.MsgHandles["read-req"] == 0 {
			t.Errorf("%s: trace summary is empty: %+v", w.name, traced.tr)
		}
		// The analyzer's counters must agree with the statistics.
		if got, want := traced.tr.Counters["read-misses"], plain.stats.ReadMisses(); got != want {
			t.Errorf("%s: trace shows %d read misses, stats %d", w.name, got, want)
		}
	}
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestKnownLUDeadlockIsCounted pins the recorded failure: LU and
// LU-Contig deadlock at 16 processes, and splash16 counts both.
func TestKnownLUDeadlockIsCounted(t *testing.T) {
	p := runPass(mustWorkload(t, "splash16"), 1, 0, false, refs(t))
	var failed []string
	for _, o := range p.ops {
		if o.failed() {
			failed = append(failed, o.name)
			if !strings.Contains(o.err, "sim: deadlock") {
				t.Errorf("%s failed with %q, want the recorded deadlock", o.name, o.err)
			}
			if o.cycles != splashCap {
				t.Errorf("%s counts %d cycles, want the cap %d", o.name, o.cycles, splashCap)
			}
		}
	}
	if strings.Join(failed, ",") != "LU,LU-Contig" {
		t.Fatalf("failed operations %v, want [LU LU-Contig]", failed)
	}
	v := endToEndValues([]*passResult{p})
	if got := v["ok_frac"]; math.Abs(got-7.0/9) > 1e-12 {
		t.Fatalf("ok_frac %v, want 7/9", got)
	}
}

func TestReferenceMismatchFailsTheOperation(t *testing.T) {
	r := refs(t)
	r["asm-lossy/fmm"] = "0000000000000001"
	p := runPass(smallAsm, 1, 0, false, r)
	s := summarizeOps(p.ops)
	if s.failed != 2 {
		t.Fatalf("%d operations failed, want the 2 fmm runs: %v", s.failed, failureGroups(p.ops))
	}
	for _, o := range p.ops {
		if strings.HasPrefix(o.name, "fmm/") && !strings.Contains(o.refErr, "memory digest") {
			t.Errorf("%s: reference check %q", o.name, o.refErr)
		}
	}
	v := perLayerValues([]*passResult{p}, withEmptyTrace(p), nil, nil)
	if want := 2.0 / float64(s.ops); v["fail_frac"] != want {
		t.Fatalf("fail_frac %v, want %v", v["fail_frac"], want)
	}
}

func withEmptyTrace(p *passResult) *passResult {
	q := *p
	q.tr = emptySummary()
	return &q
}

func TestAsmReferencesAreFaultFree(t *testing.T) {
	r := refs(t)
	for _, k := range workloads.AsmKernels() {
		res, err := workloads.RunAsm(k, rewriter.DefaultOptions(), false, core.WithProtocol("tardis"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", memDigest(res.Memory)); got != r["asm-lossy/"+k.Name] {
			t.Errorf("%s: fault-free digest %s, reference %s", k.Name, got, r["asm-lossy/"+k.Name])
		}
	}
}

func TestMergeReferencesNeverOverwrites(t *testing.T) {
	stored := map[string]string{"w/a": "00000000000000ff"}
	ops := []opResult{{name: "a", finished: true, digest: 0xfe}}
	if err := mergeReferences(stored, "w", ops); err == nil {
		t.Fatal("a differing digest was accepted")
	}
	if stored["w/a"] != "00000000000000ff" {
		t.Fatalf("stored reference changed to %s", stored["w/a"])
	}
	ops = append(ops, opResult{name: "b", finished: true, digest: 0x10})
	ops[0].digest = 0xff
	if err := mergeReferences(stored, "w", ops); err != nil || stored["w/b"] != "0000000000000010" {
		t.Fatalf("new reference not added: %v %v", err, stored)
	}
}

func TestCheckOLTP(t *testing.T) {
	sched := []load.Txn{{Tenant: 0, Seq: 0, At: 10}, {Tenant: 0, Seq: 1, At: 20}, {Tenant: 1, Seq: 0, At: 15}}
	rec := func(tn, seq int, arrive, start, done int64) load.TxnRecord {
		return load.TxnRecord{Tenant: tn, Seq: seq, Arrive: arrive, Start: start, Done: done}
	}
	ok := &load.Result{Records: []load.TxnRecord{rec(0, 0, 110, 111, 130), rec(1, 0, 115, 120, 140)}, Sheds: []int64{1, 0}}
	if msg := checkOLTP(sched, ok); msg != "" {
		t.Fatalf("valid run rejected: %s", msg)
	}
	for name, bad := range map[string]*load.Result{
		"twice":     {Records: []load.TxnRecord{rec(0, 0, 110, 111, 130), rec(0, 0, 110, 111, 130), rec(1, 0, 115, 120, 140)}, Sheds: []int64{0, 0}},
		"lost":      {Records: []load.TxnRecord{rec(0, 0, 110, 111, 130)}, Sheds: []int64{0, 0}},
		"order":     {Records: []load.TxnRecord{rec(0, 0, 110, 105, 130), rec(1, 0, 115, 120, 140)}, Sheds: []int64{1, 0}},
		"arrival":   {Records: []load.TxnRecord{rec(0, 0, 110, 111, 130), rec(1, 0, 116, 120, 140)}, Sheds: []int64{1, 0}},
		"unplanned": {Records: []load.TxnRecord{rec(2, 0, 110, 111, 130)}, Sheds: []int64{2, 1}},
	} {
		if msg := checkOLTP(sched, bad); msg == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricCatalogue checks the metric names and that BENCHMARK.json
// declares exactly the metrics the program reports.
func TestMetricCatalogue(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the caps of 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
	p := runPass(smallAsm, 1, 0, false, refs(t))
	micro, err := microTimings(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{
		{endToEnd, endToEndValues([]*passResult{p})},
		{perLayer, perLayerValues([]*passResult{p}, withEmptyTrace(p), nil, micro)},
	} {
		if len(set.vals) != len(set.defs) {
			t.Errorf("%d values for %d metrics", len(set.vals), len(set.defs))
		}
		for _, d := range set.defs {
			if _, ok := set.vals[d.Name]; !ok {
				t.Errorf("metric %s has no value", d.Name)
			}
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, bj.EndToEnd), mustJSON(t, endToEnd); a != b {
		t.Errorf("BENCHMARK.json end_to_end\n%s\nprogram\n%s", a, b)
	}
	if a, b := mustJSON(t, bj.PerLayer), mustJSON(t, perLayer); a != b {
		t.Errorf("BENCHMARK.json per_layer\n%s\nprogram\n%s", a, b)
	}
	for _, w := range bj.Workloads {
		mustWorkload(t, w.Name)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, med, q3)
	}
}

func TestBucketOf(t *testing.T) {
	for want, stack := range map[string][]string{
		"core":          {"repro/internal/core.(*Proc).handleMessage", "repro/internal/sim.(*Proc).run"},
		"sim":           {"repro/internal/sim.(*shard).pick"},
		"switch":        {"runtime.chanrecv", "repro/internal/sim.(*Proc).yieldBack", "repro/internal/core.(*Proc).charge"},
		"runtime_other": {"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/core.Build"},
		"clusteros":     {"runtime.mapaccess1", "repro/internal/clusterfs.(*FS).Read"},
		"trace":         {"strconv.AppendInt", "repro/internal/trace.(*Tracer).write"},
	} {
		if got := bucketOf(stack); got != want {
			t.Errorf("bucketOf(%v) = %s, want %s", stack, got, want)
		}
	}
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += math.Sqrt(float64(len(buf.Bytes())) + x)
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b, total := bucketProfile(samples)
	if total == 0 {
		t.Skip("no samples collected")
	}
	var sum float64
	for _, v := range b {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("bucket shares sum to %v: %v", sum, b)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.Contains(fn, "TestDecodeProfile")
		}
	}
	if !found {
		t.Fatal("no sample names the profiled test function")
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{{}, {"--workload", "nope"}, {"--workload", "splash16", "--trace", "2"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}
