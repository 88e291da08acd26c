package core

import (
	"fmt"
	"testing"
)

// rngGolden pins the first four Proc.Rand().Int63() draws of processes 0
// and 3 under Seed 42. The streams are a pure function of the seed and the
// process ID (Seed + ID*7919), whether the process was spawned by a built
// system or by the explorer's external-process constructor; the OLTP
// server's request mix depends on them.
var rngGolden = map[int][4]int64{
	0: {3440579354231278675, 608747136543856411, 5571782338101878760, 1926012586526624009},
	3: {6856251387883717952, 709445315194971794, 6643017919283028655, 5946054226963093905},
}

func firstDraws(p *Proc) [4]int64 {
	var got [4]int64
	r := p.Rand()
	for i := range got {
		got[i] = r.Int63()
	}
	return got
}

func checkRNGGolden(t *testing.T, where string, procs []*Proc) {
	t.Helper()
	for id, want := range rngGolden {
		if got := firstDraws(procs[id]); got != want {
			t.Errorf("%s: proc %d draws %v, want %v", where, id, got, want)
		}
	}
}

func TestProcRandGolden(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 42
	s := Build(WithConfig(cfg))
	ncpu := s.Eng.NumCPUs()
	procs := make([]*Proc, 4)
	for i := range procs {
		procs[i] = s.Spawn(fmt.Sprintf("w%d", i), i%ncpu, func(*Proc) {})
	}
	checkRNGGolden(t, "Build", procs)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	ecfg := baseConfig()
	ecfg.Seed = 42
	ecfg.Nodes = 4
	ecfg.CPUsPerNode = 1
	es := newSystem(ecfg)
	eprocs := make([]*Proc, 4)
	for i := range eprocs {
		eprocs[i] = es.spawnExternal(fmt.Sprintf("mc%d", i), i)
	}
	checkRNGGolden(t, "explorer", eprocs)
}
