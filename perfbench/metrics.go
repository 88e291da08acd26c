package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// metricDef describes one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json names exactly these.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees. Host metrics are
// wall-clock medians over the timed passes; simulated metrics are exact
// for a seed. ok_frac is the share of operations that succeeded (1 minus
// the failure fraction), so that it is never zero.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"sim_cycles", "cycles", "lower", 0.10},
	{"p50_txn_cycles", "cycles", "lower", 0.25},
	{"p99_txn_cycles", "cycles", "lower", 0.25},
	{"slo_attain", "fraction", "higher", 0.02},
	{"ok_frac", "fraction", "higher", 0.02},
}

// msgKinds are the protocol message kinds with per-kind metrics.
var msgKinds = []string{
	"read-req", "read-excl-req", "upgrade-req", "fwd-read", "fwd-read-excl",
	"inval-req", "downgrade-req", "lock-req", "barrier-enter", "net-ack",
}

var timeCats = []core.TimeCategory{
	core.CatTask, core.CatCheck, core.CatPoll, core.CatReadStall, core.CatWriteStall,
	core.CatSyncStall, core.CatMBStall, core.CatBlocked, core.CatMessage,
}

var coreCounters = []struct {
	name string
	c    core.Counter
}{
	{"core.read_misses", core.CntReadMisses},
	{"core.write_misses", core.CntWriteMisses},
	{"core.invalidations", core.CntInvalidations},
	{"core.downgrades_direct", core.CntDowngradesDirect},
	{"core.local_fills", core.CntLocalFills},
	{"core.messages_sent", core.CntMessagesSent},
	{"core.lock_acquires", core.CntLockAcquires},
	{"core.barrier_waits", core.CntBarrierWaits},
	{"core.syscall_validations", core.CntSyscallValidations},
	{"core.forks", core.CntForks},
	{"core.retransmits", core.CntRetransmits},
	{"core.dups_suppressed", core.CntDupsSuppressed},
	{"core.held_arrivals", core.CntHeldArrivals},
	{"core.net_acks_sent", core.CntNetAcksSent},
}

// perLayer lists the per-layer metrics, grouped by module.
var perLayer = func() []metricDef {
	m := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	out := []metricDef{
		m("sim.context_switches", "count", "lower"),
		m("sim.switch_ns", "ns", "lower"),
		m("sim.prof.switch_pct", "%", "lower"),
		m("sim.prof.sched_pct", "%", "lower"),
	}
	for _, cat := range timeCats {
		out = append(out, m("core.time."+cat.String()+"_cycles", "cycles", "lower"))
	}
	for _, c := range coreCounters {
		out = append(out, m(c.name, "count", "lower"))
	}
	for _, k := range msgKinds {
		out = append(out, m("core.msg."+k+".count", "count", "lower"), m("core.msg."+k+".delay_cycles", "cycles", "lower"))
	}
	out = append(out,
		m("core.remote_miss_us", "us", "lower"),
		m("core.ns_per_msg", "ns", "lower"),
		m("core.prof.pct", "%", "lower"),
		m("memchannel.messages", "count", "lower"),
		m("memchannel.bytes", "bytes", "lower"),
		m("memchannel.intra_messages", "count", "lower"),
		m("memchannel.drops", "count", "lower"),
		m("memchannel.dups", "count", "lower"),
		m("memchannel.queue_ns", "ns", "lower"),
		m("memchannel.prof.pct", "%", "lower"),
		m("isa.assemble_ms", "ms", "lower"),
		m("isa.prof.pct", "%", "lower"),
		m("rewriter.rewrite_ms", "ms", "lower"),
		m("rewriter.static_checks", "count", "lower"),
		m("rewriter.growth_pct", "%", "lower"),
		m("rewriter.prof.pct", "%", "lower"),
		m("oracledb.server_read_cycles", "cycles", "lower"),
		m("oracledb.server_blocked_cycles", "cycles", "lower"),
		m("oracledb.server_mb_cycles", "cycles", "lower"),
		m("oracledb.prof.pct", "%", "lower"),
		m("clusteros.prof.pct", "%", "lower"),
		m("load.offered", "count", "higher"),
		m("load.admitted", "count", "higher"),
		m("load.shed", "count", "lower"),
		m("load.mean_queue_cycles", "cycles", "lower"),
		m("load.mean_db_cycles", "cycles", "lower"),
		m("load.mean_prot_cycles", "cycles", "lower"),
		m("load.mean_sync_cycles", "cycles", "lower"),
		m("host.gc_cycles", "count", "lower"),
		m("host.gc_pause_ms", "ms", "lower"),
		m("host.mallocs", "count", "lower"),
		m("host.prof.runtime_other_pct", "%", "lower"),
		m("setup.build_ms", "ms", "lower"),
		m("setup.schedule_ms", "ms", "lower"),
		m("trace.events", "count", "lower"),
		m("trace.overhead_pct", "%", "lower"),
		m("fail_frac", "fraction", "lower"),
	)
	return out
}()

// opSummary condenses a pass's operations into the simulated end-to-end
// metrics.
type opSummary struct {
	ops, failed, sloMet int
	geomean, p50, p99   float64
	beyondP99           int // operations slower than p99
}

func summarizeOps(ops []opResult) opSummary {
	s := opSummary{ops: len(ops)}
	cyc := make([]float64, len(ops))
	var logSum float64
	for i := range ops {
		o := &ops[i]
		if o.failed() {
			s.failed++
		} else if o.sloMet {
			s.sloMet++
		}
		cyc[i] = float64(o.cycles)
		logSum += math.Log(math.Max(cyc[i], 1))
	}
	if len(ops) == 0 {
		return s
	}
	s.geomean = math.Exp(logSum / float64(len(ops)))
	sort.Float64s(cyc)
	s.p50, s.p99 = nearestRank(cyc, 0.50), nearestRank(cyc, 0.99)
	for _, c := range cyc {
		if c > s.p99 {
			s.beyondP99++
		}
	}
	return s
}

// nearestRank is the nearest-rank percentile of an ascending slice, the
// definition load.Metrics uses.
func nearestRank(sorted []float64, p float64) float64 {
	r := int(p*float64(len(sorted))+0.5) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		r = len(sorted) - 1
	}
	return sorted[r]
}

// quartiles returns the median and the first and third quartiles, by the
// same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(1), median(s), q(3)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perPass applies f to every timed pass.
func perPass(passes []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// hostSeries gives, per pass, the host quantities behind the host
// end-to-end metrics.
var hostSeries = []struct {
	name string
	f    func(*passResult) float64
}{
	{"wall_s", func(p *passResult) float64 { return float64(p.spanSum("run")) / 1e9 }},
	{"setup_s", func(p *passResult) float64 { return float64(p.spanSum("setup.")) / 1e9 }},
	{"alloc_mb", func(p *passResult) float64 { return float64(p.allocBytes) / 1e6 }},
}

// endToEndValues computes the end-to-end metrics from the untraced timed
// passes.
func endToEndValues(timed []*passResult) map[string]float64 {
	s := summarizeOps(timed[0].ops)
	v := map[string]float64{
		"sim_cycles":     s.geomean,
		"p50_txn_cycles": s.p50,
		"p99_txn_cycles": s.p99,
		"slo_attain":     float64(s.sloMet) / float64(s.ops),
		"ok_frac":        1 - float64(s.failed)/float64(s.ops),
	}
	for _, h := range hostSeries {
		v[h.name] = median(perPass(timed, h.f))
	}
	return v
}

// perLayerValues computes the per-layer metrics from the untraced timed
// passes, the traced pass, its CPU profile and the micro-timings.
func perLayerValues(timed []*passResult, tp *passResult, prof map[string]float64, micro map[string]timing) map[string]float64 {
	p0 := timed[0]
	v := map[string]float64{}
	v["sim.context_switches"] = float64(p0.ctxSw)
	for name, t := range micro {
		v[name] = t.med
	}
	for _, name := range []string{"sim.prof.switch_pct", "sim.prof.sched_pct", "core.prof.pct", "memchannel.prof.pct",
		"isa.prof.pct", "rewriter.prof.pct", "oracledb.prof.pct", "clusteros.prof.pct", "host.prof.runtime_other_pct"} {
		v[name] = prof[name]
	}
	for _, cat := range timeCats {
		v["core.time."+cat.String()+"_cycles"] = float64(p0.stats.Time[cat])
	}
	for _, c := range coreCounters {
		v[c.name] = float64(p0.stats.Get(c.c))
	}
	for _, k := range msgKinds {
		n := tp.tr.MsgHandles[k]
		v["core.msg."+k+".count"] = float64(n)
		v["core.msg."+k+".delay_cycles"] = 0
		if n > 0 {
			v["core.msg."+k+".delay_cycles"] = float64(tp.tr.MsgHandleDelay[k]) / float64(n)
		}
	}
	runNs := median(perPass(timed, func(p *passResult) float64 { return float64(p.spanSum("run")) }))
	v["core.ns_per_msg"] = 0
	if h := p0.stats.Get(core.CntMessagesHandled); h > 0 {
		v["core.ns_per_msg"] = runNs / float64(h)
	}
	v["memchannel.messages"] = float64(p0.net.Messages)
	v["memchannel.bytes"] = float64(p0.net.Bytes)
	v["memchannel.intra_messages"] = float64(p0.net.IntraMessages)
	v["memchannel.drops"] = float64(p0.net.Drops)
	v["memchannel.dups"] = float64(p0.net.Dups)
	spanMs := func(prefix string) float64 {
		return median(perPass(timed, func(p *passResult) float64 { return float64(p.spanSum(prefix)) / 1e6 }))
	}
	v["setup.build_ms"] = spanMs("setup.build")
	v["rewriter.static_checks"] = p0.sim["rewriter.static_checks"]
	v["rewriter.growth_pct"] = 0
	if o := p0.sim["rewriter.orig_words"]; o > 0 {
		v["rewriter.growth_pct"] = (p0.sim["rewriter.new_words"]/o - 1) * 100
	}
	for _, name := range []string{"oracledb.server_read_cycles", "oracledb.server_blocked_cycles", "oracledb.server_mb_cycles",
		"load.offered", "load.admitted", "load.shed", "load.mean_queue_cycles", "load.mean_db_cycles",
		"load.mean_prot_cycles", "load.mean_sync_cycles"} {
		v[name] = p0.sim[name]
	}
	v["host.gc_cycles"] = median(perPass(timed, func(p *passResult) float64 { return float64(p.gcCycles) }))
	v["host.gc_pause_ms"] = median(perPass(timed, func(p *passResult) float64 { return float64(p.gcPauseNs) / 1e6 }))
	v["host.mallocs"] = median(perPass(timed, func(p *passResult) float64 { return float64(p.mallocs) }))
	v["trace.events"] = float64(tp.tr.Events)
	v["trace.overhead_pct"] = (float64(tp.spanSum("run"))/runNs - 1) * 100
	s := summarizeOps(p0.ops)
	v["fail_frac"] = float64(s.failed) / float64(s.ops)
	return v
}

// simKey renders every simulated result of a pass canonically; passes of
// one seed, traced or not, must render identically.
func simKey(p *passResult) string {
	key := fmt.Sprintf("stats=%v net=%+v ctx=%d", p.stats, p.net, p.ctxSw)
	names := make([]string, 0, len(p.sim))
	for k := range p.sim {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		key += fmt.Sprintf(" %s=%v", k, p.sim[k])
	}
	for i := range p.ops {
		o := &p.ops[i]
		key += fmt.Sprintf("\n%s %d %v %v %q %x", o.name, o.cycles, o.finished, o.sloMet, o.why(), o.digest)
	}
	return key
}

// statsDigest hashes a pass's aggregate protocol statistics.
func statsDigest(p *passResult) uint64 {
	words := make([]uint64, 0, len(p.stats.Time)+len(p.stats.N))
	for _, t := range p.stats.Time {
		words = append(words, uint64(t))
	}
	for _, n := range p.stats.N {
		words = append(words, uint64(n))
	}
	return memDigest(words)
}

// passMemDigest combines the memory digests of a pass's operations.
func passMemDigest(p *passResult) uint64 {
	words := make([]uint64, len(p.ops))
	for i := range p.ops {
		words[i] = p.ops[i].digest
	}
	return memDigest(words)
}
