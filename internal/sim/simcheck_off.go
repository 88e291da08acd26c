//go:build !simcheck

package sim

// checkCache is off in the default build: the scheduler-cache oracle in
// simcheck.go compiles in only with -tags simcheck.
const checkCache = false

func (sh *shard) checkCaches()                         {}
func (sh *shard) checkWindow(p *Proc, horizon, w Time) {}
func (sh *shard) checkSkipped(c *CPU, minEff Time)     {}
