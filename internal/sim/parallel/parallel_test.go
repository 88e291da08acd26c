package parallel_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
	"repro/internal/trace"
)

// mailbox stages cross-shard notifications the way the DSM layer stages
// wire messages: senders append under a lock during the window, the barrier
// hook applies them (single-threaded, all shards parked) in node order. A
// notification staged at send time t carries wake time t+lookahead, so it
// is never due inside the window that staged it.
type mailbox struct {
	mu     sync.Mutex
	staged []note
}

type note struct {
	dst  *sim.Proc
	at   sim.Time
	from int
}

func (mb *mailbox) send(dst *sim.Proc, at sim.Time, from int) {
	mb.mu.Lock()
	mb.staged = append(mb.staged, note{dst, at, from})
	mb.mu.Unlock()
}

func (mb *mailbox) commit() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, n := range mb.staged {
		n.dst.NotifyAt(n.at)
	}
	mb.staged = mb.staged[:0]
}

const lookahead = sim.Time(500)

// pingRing builds one engine running a notification ring across nodes:
// every proc alternates charged work with sending a wake-up to the proc on
// the next node, and records the simulated time of every wake-up it
// receives. parallelWorkers < 0 selects the sequential engine (direct
// NotifyAt at send time); otherwise the engine is sharded per node and
// driven by parallel.New(parallelWorkers), with sends staged and committed
// at window barriers. Both deliver the identical wake time t+lookahead.
func pingRing(t *testing.T, nodes, rounds, parallelWorkers int) (times [][]sim.Time, err error) {
	t.Helper()
	cfg := sim.Config{Nodes: nodes, CPUsPerNode: 1, Quantum: 4000, CtxSwitch: 50}
	e := sim.NewEngine(cfg)
	par := parallelWorkers >= 0
	var mb mailbox
	if par {
		e.ShardPerNode()
		e.SetRunner(parallel.New(parallelWorkers))
		e.SetLookahead(lookahead)
		e.SetBarrierHook(mb.commit)
	}
	procs := make([]*sim.Proc, nodes)
	times = make([][]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		procs[i] = e.Spawn(fmt.Sprintf("ring%d", i), i, 0, func(p *sim.Proc) {
			next := procs[(i+1)%nodes]
			for r := 0; r < rounds; r++ {
				p.Advance(sim.Time(100 + 37*i))
				if par {
					mb.send(next, p.Now()+lookahead, i)
				} else {
					next.NotifyAt(p.Now() + lookahead)
				}
				p.Wait()
				times[i] = append(times[i], p.Now())
			}
		})
	}
	return times, e.Run()
}

// TestRingMatchesSequential is the sim-level equivalence check: the same
// cross-shard notification pattern must wake every process at the exact
// same simulated times on both engines, for several worker counts.
func TestRingMatchesSequential(t *testing.T) {
	const nodes, rounds = 4, 200
	seqTimes, err := pingRing(t, nodes, rounds, -1)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		parTimes, err := pingRing(t, nodes, rounds, workers)
		if err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		for i := range seqTimes {
			if len(seqTimes[i]) != rounds || len(parTimes[i]) != rounds {
				t.Fatalf("parallel(%d): proc %d woke %d/%d times (sequential %d)",
					workers, i, len(parTimes[i]), rounds, len(seqTimes[i]))
			}
			for r := range seqTimes[i] {
				if seqTimes[i][r] != parTimes[i][r] {
					t.Fatalf("parallel(%d): proc %d wake %d at t=%d, sequential t=%d",
						workers, i, r, parTimes[i][r], seqTimes[i][r])
				}
			}
		}
	}
}

// TestDeadlockDetected: a proc waiting on a notification that never comes
// must surface the engine's deadlock error through the coordinator, not
// hang the worker pool.
func TestDeadlockDetected(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1}
	e := sim.NewEngine(cfg)
	e.ShardPerNode()
	e.SetRunner(parallel.New(2))
	e.SetLookahead(lookahead)
	e.Spawn("worker", 0, 0, func(p *sim.Proc) { p.Advance(1000) })
	e.Spawn("stuck", 1, 0, func(p *sim.Proc) { p.Wait() })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error lacks stuck-process detail: %v", err)
	}
}

// TestProcErrorPropagates: Fail inside a shard worker must reach Run's
// caller after the round completes.
func TestProcErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1}
	e := sim.NewEngine(cfg)
	e.ShardPerNode()
	e.SetRunner(parallel.New(2))
	e.SetLookahead(lookahead)
	e.Spawn("ok", 0, 0, func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(100)
		}
	})
	e.Spawn("bad", 1, 0, func(p *sim.Proc) {
		p.Advance(300)
		p.Fail(boom)
	})
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

// TestMaxTimePropagates: the MaxTime safety stop fires inside a window.
func TestMaxTimePropagates(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, MaxTime: 50_000}
	e := sim.NewEngine(cfg)
	e.ShardPerNode()
	e.SetRunner(parallel.New(2))
	e.SetLookahead(lookahead)
	for i := 0; i < 2; i++ {
		e.Spawn("spin", i, 0, func(p *sim.Proc) {
			for {
				p.Advance(100)
			}
		})
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("want MaxTime error, got %v", err)
	}
}

// TestGenuineStallConfirmedAtBarrier: a shard livelocked on zero-cost
// iterations trips its watchdog, parks at the window barrier, and the
// coordinator confirms the stall into a StallError — satellite 3's
// "dump only at the barrier" behavior.
func TestGenuineStallConfirmedAtBarrier(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, WatchdogCycles: 10_000, WatchdogIters: 1 << 12}
	e := sim.NewEngine(cfg)
	e.ShardPerNode()
	e.SetRunner(parallel.New(2))
	e.SetLookahead(lookahead)
	e.Spawn("ok", 0, 0, func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(100)
		}
	})
	e.Spawn("livelock", 1, 0, func(p *sim.Proc) {
		for {
			p.YieldCPU() // yields forever without charging any work
		}
	})
	err := e.Run()
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError, got %T: %v", err, err)
	}
}

// TestFalseAlarmStallResyncs: a shard whose only process sleeps slightly
// past the watchdog budget has a stale shard-local progress mark and trips
// on every wake-up — but another shard keeps charging work, so globally
// there is no stall. The sequential engine (global progress mark) never
// trips here; the parallel coordinator must reach the same verdict by
// re-checking at the barrier, resyncing the mark, and completing cleanly.
func TestFalseAlarmStallResyncs(t *testing.T) {
	const dogCycles = 10_000
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, WatchdogCycles: dogCycles}
	e := sim.NewEngine(cfg)
	e.ShardPerNode()
	e.SetRunner(parallel.New(2))
	e.SetLookahead(lookahead)
	e.Spawn("busy", 0, 0, func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			p.Advance(100) // keeps global progress current through t=200000
		}
	})
	e.Spawn("napper", 1, 0, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(dogCycles + 2000) // each wake overshoots the shard-local mark
			p.Advance(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("false-alarm stall was not resynced: %v", err)
	}
}

// TestWorkersCapped: more workers than shards must not deadlock the
// round barrier (the pool is clamped to the shard count).
func TestWorkersCapped(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 2}
	e := sim.NewEngine(cfg)
	e.ShardPerNode()
	e.SetRunner(parallel.New(16))
	e.SetLookahead(lookahead)
	for i := 0; i < 4; i++ {
		e.Spawn("w", i, 0, func(p *sim.Proc) {
			for j := 0; j < 50; j++ {
				p.Advance(10)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Now(); got <= 0 {
		t.Fatalf("Now() = %d after run", got)
	}
}

// TestStaleSpinnerPreempted pins the scheduler's stale-spinner path on both
// engines. A process waits on cpu0 past its quantum while a second process
// is queued there. After cpu0's first visit nothing touches it: only a
// process on cpu1 (same node, same shard) advancing to the slice end moves
// shard progress there. The spinner must then be preempted at the slice
// end, and the queued process resumed one context switch later.
func TestStaleSpinnerPreempted(t *testing.T) {
	const quantum, ctxSwitch = 1000, 25
	for _, workers := range []int{-1, 2} {
		e := sim.NewEngine(sim.Config{Nodes: 2, CPUsPerNode: 2, Quantum: quantum, CtxSwitch: ctxSwitch})
		tr := trace.NewBuffer()
		if workers >= 0 {
			e.ShardPerNode()
			e.SetRunner(parallel.New(workers))
			e.SetLookahead(lookahead)
			e.SetShardTracers([]*trace.Tracer{tr, trace.NewBuffer()})
		} else {
			e.SetTracer(tr)
		}
		ready := false
		var queuedStart sim.Time
		spinner := e.Spawn("spinner", 0, 0, func(p *sim.Proc) {
			for !ready {
				p.Wait()
			}
		})
		e.Spawn("queued", 0, 0, func(p *sim.Proc) {
			queuedStart = p.Now()
			p.Advance(10)
			ready = true
			spinner.NotifyAt(p.Now())
		})
		e.Spawn("runner", 1, 0, func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				p.Advance(100)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var preempts []trace.Event
		for _, ev := range tr.TakeBuffered() {
			if ev.Ev == "preempt" {
				preempts = append(preempts, ev)
			}
		}
		want := trace.Event{T: quantum, Cat: "sched", Ev: "preempt", P: spinner.ID, O: 0}
		if len(preempts) != 1 || preempts[0] != want {
			t.Errorf("workers=%d: preempt events %+v, want [%+v]", workers, preempts, want)
		}
		if queuedStart != quantum+ctxSwitch {
			t.Errorf("workers=%d: queued process resumed at t=%d, want %d", workers, queuedStart, quantum+ctxSwitch)
		}
	}
}
