package sim

import "testing"

// BenchmarkProcessSwitch measures one Advance-forced process switch: two
// processes on separate CPUs advance in lockstep, so every Advance crosses
// the causality window and hands control to the other process. One op is
// one switch (each process makes b.N/2 advances).
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2})
	for cpu := 0; cpu < 2; cpu++ {
		e.Spawn("p", cpu, 0, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Advance(1)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSchedule runs procs processes on a 4x4 engine, process i bound to
// CPU i%16 and looping Advance(1 + i%3), so the staggered clocks keep
// crossing each other's windows. One op is one Advance (each process makes
// b.N/procs of them).
func benchSchedule(b *testing.B, procs int, quantum, ctxSwitch Time) {
	e := NewEngine(Config{Nodes: 4, CPUsPerNode: 4, Quantum: quantum, CtxSwitch: ctxSwitch})
	for i := 0; i < procs; i++ {
		step := Time(1 + i%3)
		e.Spawn("p", i%16, 0, func(p *Proc) {
			for n := 0; n < b.N/procs; n++ {
				p.Advance(step)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedule16 measures the scheduler with one process per CPU and
// no preemption.
func BenchmarkSchedule16(b *testing.B) { benchSchedule(b, 16, 0, 0) }

// BenchmarkSchedule25Quantum measures the scheduler with more processes
// than CPUs: nine CPUs time-slice two processes each.
func BenchmarkSchedule25Quantum(b *testing.B) { benchSchedule(b, 25, 900, 25) }
