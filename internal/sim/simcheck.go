//go:build simcheck

package sim

import "fmt"

// checkCache enables the scheduler-cache oracle: every cached effective
// time, every window and every skipped preempt/dispatch visit is compared
// with a full rescan, and a mismatch panics. Build with -tags simcheck.
const checkCache = true

// rescan computes, from the engine's process list alone, what refresh
// caches for CPU c: the current process's effective time, the minimum
// over the CPU's other live processes, and how many live processes it has.
func (c *CPU) rescan() (cur, rest Time, live int) {
	cur, rest = Forever, Forever
	for _, q := range c.shard.eng.procs {
		if q.cpu != c || q.state == stateDone {
			continue
		}
		live++
		if t := q.effectiveTime(); q == c.current {
			cur = t
		} else {
			rest = min(rest, t)
		}
	}
	return cur, rest, live
}

// checkCaches runs at every summarize, when every CPU's cache and the
// summary must be exact.
func (sh *shard) checkCaches() {
	min1, minRest, slot := Forever, Forever, -1
	for i, c := range sh.cpus {
		cur, rest, live := c.rescan()
		if sh.curEff[i] != cur || sh.restMin[i] != rest || len(c.procs) != live {
			panic(fmt.Sprintf("sim: stale scheduler cache on cpu%d: curEff=%d restMin=%d procs=%d, rescan %d %d %d\n%s",
				c.id, sh.curEff[i], sh.restMin[i], len(c.procs), cur, rest, live, sh.eng.DescribeCPU(c.id)))
		}
		minRest = min(minRest, rest)
		if cur < min1 || (cur == min1 && cur < Forever && c.current.ID < sh.cpus[slot].current.ID) {
			min1, slot = cur, i
		}
	}
	min2 := Forever
	for i, t := range sh.curEff {
		if i != slot {
			min2 = min(min2, t)
		}
	}
	if sh.min1 != min1 || sh.min1Slot != slot || sh.min2 != min2 || sh.minRest != minRest {
		panic(fmt.Sprintf("sim: stale scheduler summary: min1=%d@%d min2=%d minRest=%d, rescan %d@%d %d %d",
			sh.min1, sh.min1Slot, sh.min2, sh.minRest, min1, slot, min2, minRest))
	}
}

// checkWindow compares windowFor's O(1) answer w with a scan over every
// other live process in the shard.
func (sh *shard) checkWindow(p *Proc, horizon, w Time) {
	want := horizon
	for _, q := range sh.eng.procs {
		if q != p && q.cpu.shard == sh && q.state != stateDone {
			want = min(want, q.effectiveTime())
		}
	}
	if w != want {
		panic(fmt.Sprintf("sim: window for %s[%d] is %d, rescan %d", p.Name, p.ID, w, want))
	}
}

// checkSkipped makes the calls runWindow skipped on CPU c for real and
// panics if they changed anything. It compares state hashes rather than
// rendered snapshots, so the oracle adds no allocations to a run (the
// allocation gates stay meaningful under -tags simcheck).
func (sh *shard) checkSkipped(c *CPU, minEff Time) {
	before := sh.stateHash(c)
	sh.preemptIfStale(c, minEff)
	preemptSleeper(c)
	sh.dispatch(c)
	if sh.stateHash(c) != before {
		panic(fmt.Sprintf("sim: skipped a visit to cpu%d (minEff=%d) that changes it; now %s", c.id, minEff, sh.eng.DescribeCPU(c.id)))
	}
}

// stateHash hashes every field the preempt/dispatch calls may change.
func (sh *shard) stateHash(c *CPU) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * 1099511628211 }
	proc := func(p *Proc) {
		if p == nil {
			mix(-1)
			return
		}
		mix(int64(p.ID))
		mix(int64(p.state))
		mix(p.now)
		mix(p.wakeAt)
		if p.sleeping {
			mix(1)
		}
	}
	proc(c.current)
	proc(c.lastRan)
	mix(c.freeAt)
	mix(c.sliceEnd)
	mix(sh.ctxSwitches)
	if c.touched {
		mix(1)
	}
	for _, q := range c.queue {
		proc(q)
	}
	mix(int64(len(c.queue)))
	return h
}
