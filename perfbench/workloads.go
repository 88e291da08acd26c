package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/isa"
	"repro/internal/load"
	"repro/internal/memchannel"
	"repro/internal/oracledb"
	"repro/internal/rewriter"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// workload is one set of inputs the benchmark runs. A pass executes every
// operation of the workload once; the benchmark repeats passes for timing,
// and every pass of one seed must produce identical simulated results.
type workload struct {
	name string
	// fixedInputs marks workloads whose inputs do not depend on the seed.
	fixedInputs bool
	pass        func(c *passCtx)
}

// Simulated-time caps. A failed operation counts at its workload's cap in
// the cycle metrics, so the caps are part of the benchmark's definition.
const (
	splashCap = sim.Time(200e6)
	dssCap    = sim.Time(400e6)
	// oltpHorizon gives at least 1,000 completed transactions at the
	// offered load; oltpCap leaves room for the backlog to drain.
	oltpHorizon = sim.Time(14e6)
	oltpCap     = 3 * oltpHorizon
	// asmFaultSeeds is how many lossy fault schedules each assembly
	// kernel runs under per pass.
	asmFaultSeeds = 160
)

// oltpSLO is every oltp-open tenant's latency objective in cycles.
const oltpSLO = sim.Time(400_000)

// oltpPages is load.Config's default DBPages, the page range schedules
// draw from.
const oltpPages = 128

func allWorkloads() []workload {
	return []workload{
		{name: "splash16", fixedInputs: true, pass: splash16},
		{name: "dss-eq", fixedInputs: true, pass: dssEQ},
		{name: "oltp-open", pass: oltpOpen},
		{name: "asm-lossy", pass: func(c *passCtx) { asmLossy(c, asmFaultSeeds) }},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads() {
		out = append(out, w.name)
	}
	return out
}

// splash16 runs the nine SPLASH-2 kernels at 16 processes on the 4×4
// cluster: dirinval, release consistency, message-passing sync, no faults.
func splash16(c *passCtx) {
	for _, app := range workloads.All() {
		op := c.beginOp(app.Name, splashCap)
		cfg := core.DefaultConfig()
		cfg.MaxTime = splashCap
		sys := c.build(op, core.WithConfig(cfg))
		var res *workloads.Result
		err := c.run(op, func() (err error) {
			res, err = workloads.Run(sys, app, workloads.RunConfig{Procs: 16, Sync: workloads.MPSync})
			return err
		})
		c.absorb(sys)
		if err != nil {
			c.fail(op, err)
			continue
		}
		c.done(op, res.Elapsed, memDigest(sys.SnapshotShared()))
	}
}

// dssEQ runs Oracle DSS-2 with three servers in the EQ placement: servers
// on CPUs 0, 4 and 5, the daemons sharing CPU 0, protocol processes on.
func dssEQ(c *passCtx) {
	op := c.beginOp("dss2-eq-3", dssCap)
	cfg := core.DefaultConfig()
	cfg.MaxTime = dssCap
	cfg.ProtocolProcs = true
	sys, osl := c.buildOS(op, core.WithConfig(cfg))
	prm := oracledb.DSS2(3, []int{0, 4, 5}, 0)
	var res *oracledb.Result
	err := c.run(op, func() (err error) {
		res, err = oracledb.Run(sys, osl, prm)
		return err
	})
	c.absorb(sys)
	if err != nil {
		c.fail(op, err)
		return
	}
	snap := sys.SnapshotShared()
	if err := checkDSSTable(snap, prm.Pages); err != nil {
		c.mismatch(op, err.Error())
	}
	st := res.ServerStats
	c.res.sim["oracledb.server_read_cycles"] += float64(st.Time[core.CatReadStall])
	c.res.sim["oracledb.server_blocked_cycles"] += float64(st.Time[core.CatBlocked])
	c.res.sim["oracledb.server_mb_cycles"] += float64(st.Time[core.CatMBStall])
	c.done(op, res.Elapsed, memDigest(snap))
}

// checkDSSTable verifies that the cached table the query scanned still
// holds the rows oracledb seeded it with (page pg, word w = pg*1000+w).
// oracledb discards the scan's aggregate, so the table contents are the
// query's observable result.
func checkDSSTable(snap []uint64, pages int) error {
	words := pages * oracledb.PageBytes / 8
	per := oracledb.PageBytes / 8
	for i := 0; i+words <= len(snap); i++ {
		if snap[i] != 0 || snap[i+1] != 1 {
			continue
		}
		ok := true
		for k := 0; k < words && ok; k++ {
			ok = snap[i+k] == uint64(k/per*1000+k%per)
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("DSS table of %d pages not found intact in shared memory", pages)
}

// oltpTenants is oltp-open's tenant population for a seed.
func oltpTenants(seed int64) []load.TenantConfig {
	ts := load.DefaultTenants(8, seed, 10)
	for i := range ts {
		ts[i].DSSFraction = 0.25
		ts[i].DSSPages = 16
		ts[i].SLOCycles = oltpSLO
	}
	return ts
}

// oltpOpen drives open-loop multi-tenant load: 8 tenants, locality
// placement, no admission control. Each transaction is one operation,
// timed from its scheduled arrival.
func oltpOpen(c *passCtx) {
	cfg := load.Config{
		Tenants:    oltpTenants(c.seed),
		Horizon:    oltpHorizon,
		Policy:     "locality",
		Admission:  "none",
		RowCompute: 500,
	}
	var sched []load.Txn
	var err error
	c.span(-1, "setup.schedule", func() { sched, err = load.BuildSchedule(cfg.Tenants, oltpPages, cfg.Horizon) })
	if err != nil {
		c.fail(c.beginOp("schedule", oltpCap), err)
		return
	}
	// Operations are the scheduled transactions, in schedule order; the
	// simulation runs once for all of them.
	ops := make(map[[2]int]int, len(sched))
	first := -1
	for _, t := range sched {
		op := c.beginOp(fmt.Sprintf("t%d/%d", t.Tenant, t.Seq), oltpCap)
		ops[[2]int{t.Tenant, t.Seq}] = op
		if first < 0 {
			first = op
		}
	}
	sc := core.DefaultConfig()
	sc.MaxTime = oltpCap
	sys := c.build(first, core.WithConfig(sc))
	var res *load.Result
	err = c.run(first, func() (err error) {
		res, err = load.Run(sys, cfg)
		return err
	})
	c.absorb(sys)
	if err != nil {
		for _, op := range ops {
			c.fail(op, err)
		}
		return
	}
	if msg := checkOLTP(sched, res); msg != "" {
		c.mismatch(first, msg)
	}
	for _, r := range res.Records {
		op, ok := ops[[2]int{r.Tenant, r.Seq}]
		if !ok {
			continue // reported by checkOLTP
		}
		c.done(op, r.Latency(), 0)
		c.res.ops[op].sloMet = r.Latency() <= cfg.Tenants[r.Tenant].SLOCycles
	}
	for _, op := range ops {
		if o := &c.res.ops[op]; !o.finished && o.err == "" {
			c.fail(op, fmt.Errorf("shed or never completed"))
		}
	}
	m := res.Metrics
	c.res.sim["load.offered"] += float64(m.Offered)
	c.res.sim["load.admitted"] += float64(m.Admitted)
	c.res.sim["load.shed"] += float64(m.Shed)
	var queue float64
	for i := range res.Records {
		queue += float64(res.Records[i].Queueing())
	}
	if n := float64(len(res.Records)); n > 0 {
		c.res.sim["load.mean_queue_cycles"] += queue / n
	}
	c.res.sim["load.mean_db_cycles"] += float64(m.MeanDB)
	c.res.sim["load.mean_prot_cycles"] += float64(m.MeanProt)
	c.res.sim["load.mean_sync_cycles"] += float64(m.MeanSync)
}

// checkOLTP verifies that every scheduled transaction was completed or
// shed exactly once, that completions carry their scheduled arrival (one
// common offset for the whole run), and that Arrive ≤ Start ≤ Done.
func checkOLTP(sched []load.Txn, res *load.Result) string {
	at := make(map[[2]int]sim.Time, len(sched))
	perTenant := map[int]int64{}
	for _, t := range sched {
		at[[2]int{t.Tenant, t.Seq}] = t.At
		perTenant[t.Tenant]++
	}
	seen := make(map[[2]int]bool, len(res.Records))
	done := map[int]int64{}
	offset := sim.Time(-1)
	for _, r := range res.Records {
		k := [2]int{r.Tenant, r.Seq}
		a, ok := at[k]
		switch {
		case !ok:
			return fmt.Sprintf("completed transaction %v was never scheduled", k)
		case seen[k]:
			return fmt.Sprintf("transaction %v completed twice", k)
		case !(r.Arrive <= r.Start && r.Start <= r.Done):
			return fmt.Sprintf("transaction %v: arrive %d, start %d, done %d out of order", k, r.Arrive, r.Start, r.Done)
		case offset >= 0 && r.Arrive-a != offset:
			return fmt.Sprintf("transaction %v: arrival %d is not its scheduled time", k, r.Arrive)
		}
		offset = r.Arrive - a
		seen[k] = true
		done[r.Tenant]++
	}
	for tn, shed := range res.Sheds {
		if n := perTenant[tn]; done[tn]+shed != n {
			return fmt.Sprintf("tenant %d: %d scheduled, %d completed + %d shed", tn, n, done[tn], shed)
		}
	}
	return ""
}

// asmLossy assembles, rewrites and interprets the nine assembly kernels
// under tardis and the lossy fault profile, one run per (kernel, fault
// seed). Fault seeds derive from the workload seed.
func asmLossy(c *passCtx, faultSeeds int) {
	for _, k := range workloads.AsmKernels() {
		var prog, out *isa.Program
		var rst rewriter.Stats
		var err error
		op := c.beginOp(fmt.Sprintf("%s/f0", k.Name), workloads.AsmConfig().MaxTime)
		c.span(op, "setup.assemble", func() { prog, err = isa.Assemble(k.Source) })
		if err == nil {
			c.span(op, "setup.rewrite", func() { out, rst, err = rewriter.Rewrite(prog, rewriter.DefaultOptions()) })
		}
		if err != nil {
			c.fail(op, err)
			continue
		}
		c.res.sim["rewriter.static_checks"] += float64(rst.LoadChecks + rst.StoreChecks)
		c.res.sim["rewriter.orig_words"] += float64(rst.OrigWords)
		c.res.sim["rewriter.new_words"] += float64(rst.NewWords)
		for j := 0; j < faultSeeds; j++ {
			if j > 0 {
				op = c.beginOp(fmt.Sprintf("%s/f%d", k.Name, j), workloads.AsmConfig().MaxTime)
			}
			fc, err := memchannel.FaultProfile("lossy", c.seed<<8|int64(j))
			if err != nil {
				c.fail(op, err)
				continue
			}
			cfg := workloads.AsmConfig()
			cfg.Protocol = "tardis"
			cfg.Faults = fc
			sys := c.build(op, core.WithConfig(cfg))
			var elapsed sim.Time
			err = c.run(op, func() (err error) {
				elapsed, err = runAsm(sys, k, out)
				return err
			})
			c.absorb(sys)
			if err != nil {
				c.fail(op, err)
				continue
			}
			c.done(op, elapsed, memDigest(sys.SnapshotShared()))
		}
	}
}

// runAsm executes a rewritten kernel on sys the way workloads.RunAsm does
// (one rank per node, an MP barrier for syscall 1) and returns the parallel
// completion time.
func runAsm(sys *core.System, k workloads.AsmKernel, prog *isa.Program) (sim.Time, error) {
	cfg := sys.Cfg
	bar := dsmsync.NewMPBarrier(sys, 0, k.Ranks)
	var mu sync.Mutex
	var errs []error
	procs := make([]*core.Proc, k.Ranks)
	for r := 0; r < k.Ranks; r++ {
		r := r
		m := isa.NewInterp(prog)
		m.Regs[8] = uint64(r)
		m.Syscall = func(p *core.Proc, _ *isa.Interp, code int64) {
			if code == 1 {
				bar.Wait(p)
			}
		}
		cpu := r * cfg.CPUsPerNode % (cfg.Nodes * cfg.CPUsPerNode)
		procs[r] = sys.Spawn(fmt.Sprintf("rank%d", r), cpu, func(p *core.Proc) {
			if err := m.Run(p, "main"); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
				mu.Unlock()
			}
		})
	}
	sys.Alloc(32<<10, core.AllocOptions{Home: 0})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	if len(errs) > 0 {
		return 0, errs[0]
	}
	var end sim.Time
	for _, p := range procs {
		if t := p.Stats().Total(); t > end {
			end = t
		}
	}
	return end, nil
}
