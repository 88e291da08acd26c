package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/load"
	"repro/internal/memchannel"
	"repro/internal/rewriter"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// timing is a micro-timing's median and quartiles over its repeats.
type timing struct{ q1, med, q3 float64 }

const microRepeats = 9

// repeat runs one micro-timing microRepeats times; each call returns its
// per-unit cost.
func repeat(f func() (float64, error)) (timing, error) {
	v := make([]float64, 0, microRepeats)
	for i := 0; i < microRepeats; i++ {
		x, err := f()
		if err != nil {
			return timing{}, err
		}
		v = append(v, x)
	}
	q1, med, q3 := quartiles(v)
	return timing{q1, med, q3}, nil
}

// microTimings times single layers through their public APIs. They do not
// depend on the workload, so every workload reports them; seed picks the
// tenants whose schedule setup.schedule_ms builds.
func microTimings(seed int64) (map[string]timing, error) {
	out := map[string]timing{}
	for _, m := range []struct {
		name string
		f    func() (float64, error)
	}{
		{"sim.switch_ns", switchNs},
		{"memchannel.queue_ns", queueNs},
		{"core.remote_miss_us", remoteMissUs},
		{"isa.assemble_ms", assembleMs},
		{"rewriter.rewrite_ms", rewriteMs},
		{"setup.schedule_ms", func() (float64, error) { return scheduleMs(seed) }},
	} {
		t, err := repeat(m.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = t
	}
	return out, nil
}

// switchNs is the host cost of one Advance-forced process switch: two
// processes on separate CPUs advance in lockstep, so every Advance crosses
// the causality window and hands control to the other process.
func switchNs() (float64, error) {
	const n = 20_000
	e := sim.NewEngine(sim.Config{Nodes: 1, CPUsPerNode: 2})
	for cpu := 0; cpu < 2; cpu++ {
		e.Spawn(fmt.Sprintf("p%d", cpu), cpu, 0, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * n), nil
}

// queueNs is the host cost of one Put plus one Pop on a delivery queue
// holding a few in-flight messages with out-of-order arrival times.
func queueNs() (float64, error) {
	const n, depth = 200_000, 8
	q := memchannel.NewQueue[int]()
	for i := 0; i < depth; i++ {
		q.Put(i, sim.Time(i))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		// Arrivals jitter by up to 3 cycles, so inserts are not always
		// appends.
		q.Put(i, sim.Time(i+depth+(i*7)%4))
		if _, ok := q.Pop(sim.Time(i + depth + 4)); !ok {
			return 0, fmt.Errorf("queue empty at step %d", i)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// remoteMissUs is the host cost of one simulated two-hop remote read miss,
// shaped like the root package's BenchmarkProtocolRemoteMiss: a home
// process writes 1,024 blocks, a process on another node reads them.
func remoteMissUs() (float64, error) {
	const blocks = 1024
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 256 << 10
	cfg.MaxTime = sim.Time(1e9)
	s := core.Build(core.WithConfig(cfg))
	var addr uint64
	ready := false
	s.Spawn("home", 0, func(p *core.Proc) {
		addr = s.Alloc(blocks*64, core.AllocOptions{Home: 0})
		for k := 0; k < blocks; k++ {
			p.Store(addr+uint64(k*64), uint64(k))
		}
		p.MemBar()
		ready = true
		for !s.Proc(1).Exited() {
			p.Compute(1000)
		}
	})
	reader := s.Spawn("reader", cfg.CPUsPerNode, func(p *core.Proc) {
		for !ready {
			p.Compute(500)
		}
		for k := 0; k < blocks; k++ {
			p.Load(addr + uint64(k*64))
		}
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, err
	}
	el := time.Since(t0)
	misses := reader.Stats().ReadMisses()
	if misses < blocks {
		return 0, fmt.Errorf("reader took %d remote misses, want at least %d", misses, blocks)
	}
	return float64(el.Nanoseconds()) / 1e3 / float64(misses), nil
}

func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// assembleMs is the host time of isa.Assemble over the nine assembly
// kernels.
func assembleMs() (float64, error) {
	t0 := time.Now()
	for _, k := range workloads.AsmKernels() {
		if _, err := isa.Assemble(k.Source); err != nil {
			return 0, fmt.Errorf("%s: %w", k.Name, err)
		}
	}
	return sinceMs(t0), nil
}

// rewriteMs is the host time of rewriter.Rewrite, default options, over
// the nine assembled kernels.
func rewriteMs() (float64, error) {
	var progs []*isa.Program
	for _, k := range workloads.AsmKernels() {
		p, err := isa.Assemble(k.Source)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k.Name, err)
		}
		progs = append(progs, p)
	}
	t0 := time.Now()
	for _, p := range progs {
		if _, _, err := rewriter.Rewrite(p, rewriter.DefaultOptions()); err != nil {
			return 0, err
		}
	}
	return sinceMs(t0), nil
}

// scheduleMs is the host time of load.BuildSchedule for oltp-open's
// tenants and horizon.
func scheduleMs(seed int64) (float64, error) {
	t0 := time.Now()
	if _, err := load.BuildSchedule(oltpTenants(seed), oltpPages, oltpHorizon); err != nil {
		return 0, err
	}
	return sinceMs(t0), nil
}
