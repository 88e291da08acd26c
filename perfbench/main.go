// Command perfbench is the repository's benchmark. It runs one workload
// of the Shasta simulator for a fixed host-time budget, checks every
// operation's output against stored references, and prints every metric
// with its unit; the last line of standard output is a JSON summary.
//
//	go run . --workload splash16 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the summary holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics, which add a
// traced pass under a CPU profile and single-layer micro-timings.
// See README.md for the workloads and what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	regen    string
}

// spansDir is where each run writes its spans, relative to the checkout
// root run.py starts the program in.
const spansDir = ".bench_build/spans"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of timed passes")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&o.regen, "regen", "", "add this run's missing reference digests to the given reference file (never changes an existing one)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	r, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.regen != "" {
		if err := regenerate(o.regen, w.name, r.timed[0]); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := writeSpans(o, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := r.print(stdout, o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// report is one run: the timed passes, the optional traced pass, and the
// correctness findings.
type report struct {
	w      workload
	seed   int64
	warm   *passResult
	timed  []*passResult
	traced *passResult
	prof   map[string]float64 // profile bucket shares, traced runs
	samps  int64
	micro  map[string]timing
	checks []string // correctness-check failures
}

func (r *report) correct() bool { return len(r.checks) == 0 }

// measure runs one warm-up pass, timed passes until the budget is spent
// (at least one), and with --trace 1 a traced pass and the micro-timings.
func measure(w workload, o options) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	r := &report{w: w, seed: o.seed}
	r.warm = runPass(w, o.seed, 0, false, refs)
	base := simKey(r.warm)
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for {
		t0 := time.Now()
		p := runPass(w, o.seed, len(r.timed)+1, false, refs)
		r.timed = append(r.timed, p)
		if simKey(p) != base {
			r.checks = append(r.checks, fmt.Sprintf("timed pass %d: simulated results differ from the warm-up pass", len(r.timed)))
		}
		// Start another pass only if it is expected to finish in budget.
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	if o.trace == 1 {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		r.traced = runPass(w, o.seed, len(r.timed)+1, true, refs)
		pprof.StopCPUProfile()
		if err := analyzeTraces(r.traced); err != nil {
			return nil, err
		}
		if simKey(r.traced) != base {
			r.checks = append(r.checks, "traced pass: simulated results differ from the untraced passes")
		}
		samples, err := decodeProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		r.prof, r.samps = bucketProfile(samples)
		if r.micro, err = microTimings(o.seed); err != nil {
			return nil, err
		}
	}
	for i := range r.warm.ops {
		if op := &r.warm.ops[i]; op.check != "" || op.refErr != "" {
			r.checks = append(r.checks, op.name+": "+op.check+op.refErr)
		}
	}
	return r, nil
}

func (r *report) metrics(trace int) (map[string]float64, []metricDef) {
	if trace == 1 {
		return perLayerValues(r.timed, r.traced, profileMetrics(r.prof), r.micro), perLayer
	}
	return endToEndValues(r.timed), endToEnd
}

// print writes the report; the last line is the JSON summary.
func (r *report) print(out io.Writer, o options) error {
	p0 := r.warm
	inputs := "inputs derive from the seed"
	if r.w.fixedInputs {
		inputs = "fixed inputs: the seed does not change them"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d (%s) trace=%d\n", r.w.name, r.seed, inputs, o.trace)
	fmt.Fprintf(out, "host go=%s os=%s/%s cpus=%d gomaxprocs=%d commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())
	s := summarizeOps(p0.ops)
	fmt.Fprintf(out, "passes: 1 warm-up, %d timed", len(r.timed))
	if r.traced != nil {
		fmt.Fprint(out, ", 1 traced")
	}
	fmt.Fprintf(out, "\nsamples: %d operations per pass, %d failed (fail_frac %.4f), %d beyond p99\n",
		s.ops, s.failed, float64(s.failed)/float64(s.ops), s.beyondP99)
	fmt.Fprintf(out, "invariants: stats_digest=%016x memory_digest=%016x sim_messages=%d\n",
		statsDigest(p0), passMemDigest(p0), p0.net.Messages)
	for _, f := range failureGroups(p0.ops) {
		fmt.Fprintln(out, f)
	}
	for _, c := range r.checks {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", c)
	}
	vals, defs := r.metrics(o.trace)
	if o.trace == 0 {
		for _, h := range hostSeries {
			q1, med, q3 := quartiles(perPass(r.timed, h.f))
			fmt.Fprintf(out, "spread %s over %d passes: q1=%.6g median=%.6g q3=%.6g\n", h.name, len(r.timed), q1, med, q3)
		}
	} else {
		names := make([]string, 0, len(r.micro))
		for k := range r.micro {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			t := r.micro[k]
			fmt.Fprintf(out, "micro %s over %d repeats: q1=%.6g median=%.6g q3=%.6g\n", k, microRepeats, t.q1, t.med, t.q3)
		}
		fmt.Fprintf(out, "profile: %d samples over the traced pass:", r.samps)
		for _, b := range sortedBuckets(r.prof) {
			fmt.Fprintf(out, " %s=%.1f%%", b, r.prof[b])
		}
		fmt.Fprintln(out)
		for _, l := range spanTable(r.traced) {
			fmt.Fprintln(out, l)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, d := range defs {
		fmt.Fprintf(out, "metric %-36s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
		ms[d.Name] = metric{vals[d.Name], d.Unit}
	}
	attempted := len(p0.ops) * len(r.timed)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), attempted, s.failed * len(r.timed), ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// spanTable summarizes a pass's spans by name.
func spanTable(p *passResult) []string {
	type agg struct {
		n  int
		ns int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range p.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.ns += s.End - s.Start
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %-16s calls=%-5d total_ms=%.3f", n, by[n].n, float64(by[n].ns)/1e6))
	}
	return out
}

// writeSpans writes every pass's spans as JSON lines.
func writeSpans(o options, r *report) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d-trace%d.jsonl", o.workload, o.seed, o.trace))
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	passes := append([]*passResult{r.warm}, r.timed...)
	if r.traced != nil {
		passes = append(passes, r.traced)
	}
	for _, p := range passes {
		for _, s := range p.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// failureGroups lists failed operations, one line per distinct reason.
func failureGroups(ops []opResult) []string {
	var order []string
	names := map[string][]string{}
	for i := range ops {
		o := &ops[i]
		if !o.failed() {
			continue
		}
		why := truncate(o.why(), 240)
		if names[why] == nil {
			order = append(order, why)
		}
		names[why] = append(names[why], o.name)
	}
	out := make([]string, 0, len(order))
	for _, why := range order {
		n := names[why]
		who := strings.Join(n, ", ")
		if len(n) > 3 {
			who = fmt.Sprintf("%s and %d more", strings.Join(n[:3], ", "), len(n)-3)
		}
		out = append(out, fmt.Sprintf("failed: %s: %s", who, why))
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// commit reports the VCS revision stamped into the binary, if any.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
