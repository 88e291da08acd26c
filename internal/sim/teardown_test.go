package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// engines builds the same 2-node x 2-CPU topology on the sequential engine
// and on a two-worker parallel runner (one shard per node).
var engines = []struct {
	name  string
	build func(cfg sim.Config) *sim.Engine
}{
	{"sequential", func(cfg sim.Config) *sim.Engine {
		cfg.Nodes, cfg.CPUsPerNode = 2, 2
		return sim.NewEngine(cfg)
	}},
	{"parallel", func(cfg sim.Config) *sim.Engine {
		cfg.Nodes, cfg.CPUsPerNode = 2, 2
		e := sim.NewEngine(cfg)
		e.ShardPerNode()
		e.SetLookahead(100)
		e.SetRunner(parallel.New(2))
		return e
	}},
}

// waitForever parks the process until tear-down; nobody notifies it.
func waitForever(p *sim.Proc) {
	for {
		p.Wait()
	}
}

// spawnBystanders parks one process on every CPU but the first, plus one
// that is spawned far in the future and never starts, so tear-down has
// parked and unstarted processes to unwind on both shards.
func spawnBystanders(e *sim.Engine) {
	for cpu := 1; cpu < e.NumCPUs(); cpu++ {
		e.Spawn(fmt.Sprintf("bystander%d", cpu), cpu, 0, waitForever)
	}
	e.SpawnAt("late", 3, 0, 1<<40, func(p *sim.Proc) {})
}

// sleepThenDo yields a few times (every Sleep hands control back to the
// scheduler) before doing f.
func sleepThenDo(f func(p *sim.Proc)) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(50)
			p.Sleep(100)
		}
		f(p)
	}
}

// checkNoLeftoverGoroutines requires the goroutine count to be back at
// baseline: Run returns only after every process coroutine and every
// runner goroutine has exited.
func checkNoLeftoverGoroutines(t *testing.T, baseline int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left over after Run (baseline %d):\n%s", n-baseline, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestRunLeavesNoGoroutines checks every way Run can end: afterwards no
// process coroutine (and no runner goroutine) is left behind.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		cfg   sim.Config
		spawn func(e *sim.Engine)
		want  string // error substring; "" means success
	}{
		{"success", sim.Config{}, func(e *sim.Engine) {
			for cpu := 0; cpu < e.NumCPUs(); cpu++ {
				e.Spawn("worker", cpu, 0, sleepThenDo(func(p *sim.Proc) { p.Advance(10) }))
			}
		}, ""},
		{"deadlock", sim.Config{}, func(e *sim.Engine) {
			e.Spawn("stuck", 0, 0, sleepThenDo(waitForever))
			spawnBystanders(e)
		}, "deadlock"},
		{"panic", sim.Config{}, func(e *sim.Engine) {
			e.Spawn("bad", 0, 0, sleepThenDo(func(p *sim.Proc) { panic("boom") }))
			spawnBystanders(e)
		}, "boom"},
		{"maxtime", sim.Config{MaxTime: 10_000}, func(e *sim.Engine) {
			e.Spawn("spin", 0, 0, func(p *sim.Proc) {
				for {
					p.Advance(1000)
				}
			})
			spawnBystanders(e)
		}, "MaxTime"},
		{"fail", sim.Config{}, func(e *sim.Engine) {
			e.Spawn("failer", 0, 0, sleepThenDo(func(p *sim.Proc) { p.Fail(errors.New("peer unreachable")) }))
			spawnBystanders(e)
		}, "peer unreachable"},
		{"stall", sim.Config{WatchdogCycles: 1000, WatchdogIters: 500}, func(e *sim.Engine) {
			e.Spawn("spin", 0, 0, func(p *sim.Proc) {
				for {
					p.YieldCPU()
				}
			})
			spawnBystanders(e)
		}, "stall watchdog"},
	}
	for _, eng := range engines {
		for _, tc := range cases {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				e := eng.build(tc.cfg)
				tc.spawn(e)
				err := e.Run()
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("Run: %v", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("Run: got %v, want an error containing %q", err, tc.want)
				}
				checkNoLeftoverGoroutines(t, baseline)
			})
		}
	}
}

// TestDrainUnwindsOneAtATimeInProcessOrder parks processes on every CPU of
// both nodes, each with a deferred cleanup that gives the host scheduler a
// chance to interleave. Tear-down must run the cleanups one at a time, each
// to completion, in process order.
func TestDrainUnwindsOneAtATimeInProcessOrder(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.build(sim.Config{})
			var log []string
			for i := 0; i < 8; i++ {
				e.Spawn(fmt.Sprintf("p%d", i), i%e.NumCPUs(), 0, func(p *sim.Proc) {
					defer func() {
						log = append(log, fmt.Sprintf("enter%d", i))
						runtime.Gosched()
						log = append(log, fmt.Sprintf("exit%d", i))
					}()
					p.Advance(sim.Time(10 * (8 - i)))
					for {
						p.Block() // releases the CPU, so every process starts
					}
				})
			}
			e.Spawn("done", 0, 0, func(p *sim.Proc) { p.Advance(1) })
			if err := e.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("Run: got %v, want deadlock", err)
			}
			var want []string
			for i := 0; i < 8; i++ {
				want = append(want, fmt.Sprintf("enter%d", i), fmt.Sprintf("exit%d", i))
			}
			if got := strings.Join(log, " "); got != strings.Join(want, " ") {
				t.Fatalf("cleanup order:\n got %s\nwant %s", got, strings.Join(want, " "))
			}
		})
	}
}
