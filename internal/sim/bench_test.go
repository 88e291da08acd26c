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
