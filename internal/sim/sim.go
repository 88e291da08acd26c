// Package sim provides a deterministic, conservative discrete-event
// simulation engine for a cluster of SMP nodes.
//
// Each simulated process runs as a coroutine (iter.Pull), so handing control
// between the scheduler and a process is a direct switch, not a goroutine
// handoff through the Go scheduler. The scheduler is organised
// around *shards*: disjoint groups of CPUs (and the processes bound to
// them) that each resume exactly one process at a time — always a process
// whose next possible action is earliest in simulated time within the
// shard. A resumed process runs until it blocks, or until its local clock
// passes the engine-supplied window (the minimum effective time of any
// other process in the shard, clamped to the shard's horizon), at which
// point it yields back to the scheduler.
//
// By default the engine has a single shard containing every CPU and a
// horizon of Forever, which is exactly the classic sequential
// discrete-event schedule: causally correct and fully deterministic. A
// Runner (see internal/sim/parallel) may instead partition the engine into
// one shard per node and drive all shards concurrently in bounded time
// windows — conservative parallel discrete-event simulation. Within a
// window shards share no mutable state (higher layers stage cross-shard
// effects until the window barrier), so the parallel schedule commits the
// same state transitions at the same simulated times as the sequential
// one.
//
// The scheduler is incremental. Between two resumes the state of about one
// CPU changes, so each shard caches, per CPU, the effective time of the
// current process (curEff) and the minimum effective time of the CPU's
// other live processes (restMin). A process's effective time reads only
// the process and its CPU, so the invariant is: a CPU whose state and
// whose bound processes are unchanged since its last refresh has exact
// cached values. Every change marks its CPU with touch — after each
// resume (the resumed process's CPU), in NotifyAt when the wake time
// moves, in SpawnAt, at pick's wake commit, and wherever preemptIfStale,
// preemptSleeper or dispatch changes a CPU. Only touched CPUs are
// recomputed, and only then are the two arrays rescanned into the summary
// that minEffective, pick and windowFor read in O(1). The preempt/dispatch
// loop likewise visits only CPUs touched since their last visit, plus a
// CPU whose stale spinner waits only on the shard's minimum effective time
// to reach its slice end; any other visit would be a no-op. Building with
// -tags simcheck compares every cached value, every window and every
// skipped visit with a full rescan (simcheck.go).
//
// Time is measured in CPU cycles of the modeled machine (300 MHz Alpha
// 21164 in the Shasta configuration, so 300 cycles per microsecond).
package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Time is a point in simulated time, in CPU cycles.
type Time = int64

// CyclesPerMicrosecond converts the modeled 300 MHz clock to microseconds.
const CyclesPerMicrosecond = 300

// Microseconds converts a duration in cycles to microseconds.
func Microseconds(t Time) float64 { return float64(t) / CyclesPerMicrosecond }

// Cycles converts microseconds to cycles.
func Cycles(us float64) Time { return Time(us * CyclesPerMicrosecond) }

// Forever is a wake time used for indefinite blocking.
const Forever = Time(1) << 62

type procState int

const (
	stateNew     procState = iota // spawned, not yet started
	stateReady                    // schedulable at p.now
	stateRunning                  // currently executing guest code
	stateWaiting                  // waiting for an event; holds its CPU
	stateBlocked                  // blocked in the OS; releases its CPU
	stateDone                     // finished
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateWaiting:
		return "waiting"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Config holds engine-level scheduling parameters.
type Config struct {
	Nodes       int  // number of SMP nodes
	CPUsPerNode int  // processors per node
	Quantum     Time // scheduling time slice; 0 disables preemption
	CtxSwitch   Time // cost of a context switch
	MaxTime     Time // safety stop; 0 means no limit

	// WatchdogCycles enables the stall watchdog: if no process performs any
	// charged work (Proc.Advance with a positive cost) for this many
	// simulated cycles while the engine keeps scheduling, the run fails
	// with a StallError describing every process. This catches livelocks
	// where time still creeps forward (e.g. protocol processes polling an
	// empty queue forever) that the all-blocked deadlock check cannot see.
	// 0 disables the watchdog.
	WatchdogCycles Time
	// WatchdogIters bounds scheduler iterations without charged work, for
	// livelocks that do not advance simulated time at all. 0 picks a
	// default when WatchdogCycles is set.
	WatchdogIters int64
}

// defaultWatchdogIters backs WatchdogIters when only WatchdogCycles is
// configured: enough scheduler round-trips that any legitimate zero-cost
// phase (barrier release cascades, queue drains) finishes long before it.
const defaultWatchdogIters = 4 << 20

// Runner drives Engine.Run in place of the built-in sequential scheduler.
// Implementations (internal/sim/parallel) repeatedly call RunShardWindow on
// every shard, CommitRound at each window barrier, and return the first
// error. Engine.Run still owns process tear-down (drain) around the runner.
type Runner interface {
	Run(e *Engine) error
}

// WindowStatus reports how a shard's window ended.
type WindowStatus int

const (
	// WindowHorizon: the shard ran until no process could act before the
	// horizon. The normal outcome of a bounded window.
	WindowHorizon WindowStatus = iota
	// WindowIdle: no process in the shard can ever run again without an
	// external notification (all done or blocked indefinitely).
	WindowIdle
	// WindowErr: the shard recorded an error (guest panic, MaxTime, Fail).
	WindowErr
	// WindowStall: the shard's watchdog tripped; the coordinator must
	// confirm (ConfirmStall) at the window barrier.
	WindowStall
)

// shard is one scheduling domain: a disjoint set of CPUs and the processes
// bound to them. All scheduler state that the sequential engine kept
// globally lives per shard, so shards can run concurrently without sharing.
type shard struct {
	eng  *Engine
	idx  int
	cpus []*CPU

	// Effective-time caches, indexed by CPU.slot (see the package comment).
	// Outside refresh, every CPU not listed in stale[:nStale] has exact
	// values. stale has len(cpus) entries, so touch never grows it.
	curEff  []Time
	restMin []Time
	stale   []int
	nStale  int
	// The caches' summary, kept by summarize: the smallest curEff (at
	// slot min1Slot, the lowest process ID among ties), the second
	// smallest, and the smallest restMin.
	min1, min2, minRest Time
	min1Slot            int

	now     Time // time of the most recently resumed process
	running *Proc
	err     error
	// ctxSwitches counts context switches performed by this shard.
	ctxSwitches int64

	// progressMark is the clock of the last process that performed charged
	// work; itersNoProgress counts scheduler iterations since then. Both
	// feed the stall watchdog.
	progressMark    Time
	itersNoProgress int64
	// stalled is the process at which the watchdog tripped; stallIters
	// marks an iteration-budget (rather than cycle-budget) trip.
	stalled    *Proc
	stallIters bool

	tracer *trace.Tracer
}

// Engine is the simulation scheduler.
type Engine struct {
	cfg    Config
	cpus   []*CPU
	procs  []*Proc
	shards []*shard

	runner    Runner
	lookahead Time
	// barrierHook runs at every window barrier of a parallel run; higher
	// layers use it to commit staged cross-shard effects.
	barrierHook func()
	inRounds    bool

	tracer *trace.Tracer
	// dumpHook, when set, contributes higher-layer state (protocol queues,
	// outstanding misses) to StallError dumps.
	dumpHook func() string
}

// NewEngine creates an engine with the given topology.
func NewEngine(cfg Config) *Engine {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		panic("sim: topology must have at least one node and one CPU")
	}
	e := &Engine{cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < cfg.CPUsPerNode; c++ {
			e.cpus = append(e.cpus, &CPU{id: len(e.cpus), node: n, sliceEnd: Forever})
		}
	}
	e.shards = []*shard{newShard(e, 0, e.cpus)}
	return e
}

// newShard makes the scheduling domain idx out of cpus.
func newShard(e *Engine, idx int, cpus []*CPU) *shard {
	sh := &shard{
		eng:      e,
		idx:      idx,
		cpus:     cpus,
		curEff:   make([]Time, len(cpus)),
		restMin:  make([]Time, len(cpus)),
		stale:    make([]int, len(cpus)),
		min1:     Forever,
		min2:     Forever,
		minRest:  Forever,
		min1Slot: -1,
	}
	for i, c := range cpus {
		c.shard, c.slot = sh, i
		sh.curEff[i], sh.restMin[i] = Forever, Forever
	}
	return sh
}

// ShardPerNode partitions the engine into one shard per node for a parallel
// run. Must be called before any process is spawned.
func (e *Engine) ShardPerNode() {
	if len(e.procs) > 0 {
		panic("sim: ShardPerNode after processes were spawned")
	}
	e.shards = nil
	for n := 0; n < e.cfg.Nodes; n++ {
		var cpus []*CPU
		for _, c := range e.cpus {
			if c.node == n {
				cpus = append(cpus, c)
			}
		}
		e.shards = append(e.shards, newShard(e, n, cpus))
	}
}

// NumShards returns the number of scheduling shards (1 unless ShardPerNode
// was called).
func (e *Engine) NumShards() int { return len(e.shards) }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetTracer installs a structured event tracer (nil disables tracing).
// With a single shard the tracer also receives scheduling events; a
// per-node-sharded engine needs SetShardTracers for those.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	if len(e.shards) == 1 {
		e.shards[0].tracer = t
	}
}

// Tracer returns the installed tracer, or nil.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// SetShardTracers installs one tracer per shard (indexed like shards, i.e.
// by node after ShardPerNode). Shard tracers receive the scheduling events
// emitted inside windows; a parallel coordinator merges them into the main
// tracer at each barrier.
func (e *Engine) SetShardTracers(ts []*trace.Tracer) {
	if len(ts) != len(e.shards) {
		panic(fmt.Sprintf("sim: %d shard tracers for %d shards", len(ts), len(e.shards)))
	}
	for i, sh := range e.shards {
		sh.tracer = ts[i]
	}
}

// SetDumpHook installs a callback that contributes extra state to watchdog
// stall dumps (the DSM layer uses it to describe protocol queues).
func (e *Engine) SetDumpHook(fn func() string) { e.dumpHook = fn }

// SetRunner installs a Runner that Run delegates to (nil restores the
// built-in sequential scheduler).
func (e *Engine) SetRunner(r Runner) { e.runner = r }

// SetLookahead records the minimum cross-shard interaction latency of the
// modeled system; a parallel runner adds it to the global minimum effective
// time to obtain each round's safe horizon.
func (e *Engine) SetLookahead(l Time) { e.lookahead = l }

// Lookahead returns the configured lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetBarrierHook installs the callback CommitRound invokes at every window
// barrier of a parallel run.
func (e *Engine) SetBarrierHook(fn func()) { e.barrierHook = fn }

// CommitRound runs the barrier hook. A parallel runner calls it after all
// shards have parked at the horizon; with all processes quiescent, the
// hook may commit staged cross-shard effects safely.
func (e *Engine) CommitRound() {
	if e.barrierHook != nil {
		e.barrierHook()
	}
}

// NumCPUs returns the total processor count.
func (e *Engine) NumCPUs() int { return len(e.cpus) }

// NodeOf returns the node index of a global CPU index.
func (e *Engine) NodeOf(cpu int) int { return e.cpus[cpu].node }

// Now returns the clock of the most recently scheduled process (the
// furthest shard clock on a sharded engine). It is a reporting aid, not a
// causal bound.
func (e *Engine) Now() Time {
	var m Time
	for _, sh := range e.shards {
		if sh.now > m {
			m = sh.now
		}
	}
	return m
}

// ContextSwitches reports how many context switches the scheduler performed.
func (e *Engine) ContextSwitches() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.ctxSwitches
	}
	return n
}

// Procs returns all spawned processes.
func (e *Engine) Procs() []*Proc { return e.procs }

// Spawn creates a process bound to the given global CPU index. The function
// fn runs as the process body; the process finishes when fn returns.
// Priority 0 is normal; higher values run only when no lower value is ready
// on the same CPU (used for Shasta protocol processes).
func (e *Engine) Spawn(name string, cpu int, priority int, fn func(p *Proc)) *Proc {
	return e.SpawnAt(name, cpu, priority, 0, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Engine) SpawnAt(name string, cpu int, priority int, start Time, fn func(p *Proc)) *Proc {
	if cpu < 0 || cpu >= len(e.cpus) {
		panic(fmt.Sprintf("sim: spawn %q on invalid cpu %d", name, cpu))
	}
	if e.inRounds {
		panic(fmt.Sprintf("sim: spawn %q during a parallel run (dynamic process creation requires the sequential engine)", name))
	}
	p := &Proc{
		ID:       len(e.procs),
		Name:     name,
		Priority: priority,
		eng:      e,
		cpu:      e.cpus[cpu],
		now:      start,
		state:    stateNew,
		wakeAt:   Forever,
		window:   Forever,
	}
	e.procs = append(e.procs, p)
	p.cpu.procs = append(p.cpu.procs, p)
	p.cpu.queue = append(p.cpu.queue, p)
	p.cpu.touch()
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{T: start, Cat: "sched", Ev: "spawn", P: p.ID, O: cpu, S: name})
	}
	p.start(fn)
	return p
}

// ExternalProc creates a process that is driven from outside Engine.Run:
// it has no coroutine, is never scheduled, and is invisible to the
// scheduler (not registered with the engine or any CPU queue). It exists
// so higher-layer code that charges time (Proc.Advance) or reads clocks
// can execute directly on the calling goroutine — the model checker uses
// it to invoke protocol handlers as atomic steps. An external process
// must never block: Wait/Block/Sleep panic.
func (e *Engine) ExternalProc(name string, cpu int) *Proc {
	if cpu < 0 || cpu >= len(e.cpus) {
		panic(fmt.Sprintf("sim: external proc %q on invalid cpu %d", name, cpu))
	}
	return &Proc{
		ID:       -1,
		Name:     name,
		eng:      e,
		cpu:      e.cpus[cpu],
		state:    stateRunning,
		wakeAt:   Forever,
		window:   Forever,
		external: true,
	}
}

// Run drives the simulation until every process has finished, a process
// panics, deadlock is detected, or MaxTime is exceeded. With a Runner
// installed, Run delegates the schedule to it (tear-down stays here).
func (e *Engine) Run() error {
	defer e.drain()
	if e.runner != nil {
		e.inRounds = true
		err := e.runner.Run(e)
		e.inRounds = false
		return err
	}
	sh := e.shards[0]
	switch sh.runWindow(Forever) {
	case WindowErr:
		return sh.err
	case WindowStall:
		return e.stallErrorAt(sh, sh.progressMark)
	default: // WindowHorizon, WindowIdle: nothing left before Forever
		if e.allDone() {
			return nil
		}
		return e.DeadlockError()
	}
}

// RunShardWindow runs one shard until nothing in it can act before the
// horizon (or an error/stall interrupts it). A parallel runner calls it
// for different shards concurrently; the sequential engine calls it once
// with horizon Forever.
func (e *Engine) RunShardWindow(i int, horizon Time) WindowStatus {
	return e.shards[i].runWindow(horizon)
}

// ShardErr returns the error recorded by shard i, if any.
func (e *Engine) ShardErr(i int) error { return e.shards[i].err }

// FirstErr returns the recorded error of the lowest-indexed failed shard.
// Shards run their windows independently, so when several fail in one
// round the lowest index gives a deterministic winner.
func (e *Engine) FirstErr() error {
	for _, sh := range e.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// ShardMinEffective returns the earliest effective time of any live
// process in shard i (Forever if none).
func (e *Engine) ShardMinEffective(i int) Time { return e.shards[i].minEffective() }

// GlobalMinEffective returns the earliest effective time of any live
// process: the next moment anything can happen.
func (e *Engine) GlobalMinEffective() Time {
	m := Forever
	for _, sh := range e.shards {
		m = min(m, sh.minEffective())
	}
	return m
}

// AllDone reports whether every process has finished.
func (e *Engine) AllDone() bool { return e.allDone() }

// DeadlockError builds the all-blocked diagnostic error.
func (e *Engine) DeadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if p.state != stateDone {
			stuck = append(stuck, fmt.Sprintf("%s[%d] %s t=%d wake=%d", p.Name, p.ID, p.state, p.now, p.wakeAt))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock, %d processes stuck: %v", len(stuck), stuck)
}

// ConfirmStall resolves a WindowStall from shard i at a window barrier.
// An iteration-budget trip is always genuine (a zero-time livelock cannot
// span shards inside one window). A cycle-budget trip is re-checked
// against global progress: another shard may have performed charged work
// the tripping shard could not see, in which case the shard's watchdog
// state is synchronized and the run continues. Returns the StallError to
// fail with, or nil to continue.
func (e *Engine) ConfirmStall(i int) error {
	sh := e.shards[i]
	if sh.stalled == nil {
		return nil
	}
	var gm Time
	for _, s := range e.shards {
		if s.progressMark > gm {
			gm = s.progressMark
		}
	}
	if sh.stallIters || sh.stalled.now > gm+e.cfg.WatchdogCycles {
		return e.stallErrorAt(sh, gm)
	}
	sh.progressMark = gm
	sh.itersNoProgress = 0
	sh.stalled = nil
	return nil
}

// runWindow drives the shard's scheduling loop until nothing in the shard
// can act before the horizon. It is re-entrant: a parallel runner calls it
// once per round with an increasing horizon.
func (sh *shard) runWindow(horizon Time) WindowStatus {
	e := sh.eng
	for {
		if sh.err != nil {
			return WindowErr
		}
		minEff := sh.minEffective()
		if minEff >= horizon {
			return WindowHorizon
		}
		for _, c := range sh.cpus {
			// An untouched CPU is unchanged since its last visit, which
			// left it as these calls would: visiting it again is a no-op,
			// unless preemptIfStale was waiting only on minEff.
			if !c.touched && !(c.spinner && minEff >= c.sliceEnd) {
				if checkCache {
					sh.checkSkipped(c, minEff)
				}
				continue
			}
			c.touched = false
			sh.preemptIfStale(c, minEff)
			preemptSleeper(c)
			sh.dispatch(c)
			c.spinner = sh.staleSpinner(c)
		}
		p, st := sh.pick(horizon)
		if p == nil {
			return st
		}
		if e.cfg.MaxTime > 0 && p.now > e.cfg.MaxTime {
			sh.err = fmt.Errorf("sim: exceeded MaxTime %d at proc %s (t=%d)", e.cfg.MaxTime, p.Name, p.now)
			return WindowErr
		}
		if e.cfg.WatchdogCycles > 0 {
			sh.itersNoProgress++
			iters := e.cfg.WatchdogIters
			if iters <= 0 {
				iters = defaultWatchdogIters
			}
			if p.now > sh.progressMark+e.cfg.WatchdogCycles || sh.itersNoProgress > iters {
				sh.stalled = p
				sh.stallIters = sh.itersNoProgress > iters && p.now <= sh.progressMark+e.cfg.WatchdogCycles
				return WindowStall
			}
		}
		sh.now = p.now
		window := sh.windowFor(p, horizon)
		if e.cfg.MaxTime > 0 && window > e.cfg.MaxTime+1 {
			window = e.cfg.MaxTime + 1
		}
		p.state = stateRunning
		sh.running = p
		p.window = window
		p.next()
		sh.running = nil
		if p.state == stateRunning {
			p.state = stateReady
		}
		if p.state == stateDone && sh.tracer != nil {
			sh.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "exit", P: p.ID, O: p.cpu.id, S: p.Name})
		}
		sh.reschedule(p)
		p.cpu.touch()
	}
}

// preemptIfStale deschedules a current process that is waiting past its
// quantum while others want the CPU (a spinning process being switched
// out). The preemption may only be committed once shard progress (minEff)
// has actually reached the slice end: an earlier wake-up would mean the
// spinner consumed its event mid-quantum and was never switched out.
// (Cross-shard events cannot wake it before the slice end either: they
// arrive at or after the horizon, which bounds every in-window wake.)
func (sh *shard) preemptIfStale(c *CPU, minEff Time) {
	if minEff < c.sliceEnd || !sh.staleSpinner(c) {
		return
	}
	p := c.current
	p.now = maxTime(p.now, c.sliceEnd)
	c.lastRan = p
	c.freeAt = maxTime(c.freeAt, p.now)
	c.current = nil
	c.queue = append(c.queue, p)
	c.touch()
	if sh.tracer != nil {
		sh.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "preempt", P: p.ID, O: c.id})
	}
}

// staleSpinner reports whether c's current process is a spinner that
// preemptIfStale switches out once shard progress reaches the slice end:
// waiting past its quantum while others want the CPU.
func (sh *shard) staleSpinner(c *CPU) bool {
	p := c.current
	return p != nil && sh.eng.cfg.Quantum != 0 && p.state == stateWaiting &&
		!p.sleeping && p.wakeAt > c.sliceEnd && anyoneElseWants(c)
}

// summarize brings the caches and their summary up to date. With nothing
// touched since the last call there is nothing to do.
func (sh *shard) summarize() {
	if sh.nStale > 0 {
		sh.refresh()
	}
	if checkCache {
		sh.checkCaches()
	}
}

// refresh recomputes the cached effective times of every touched CPU,
// pruning finished processes from their lists, and rescans the two arrays
// for the summary.
func (sh *shard) refresh() {
	for _, i := range sh.stale[:sh.nStale] {
		c := sh.cpus[i]
		c.stale = false
		cur, rest := Forever, Forever
		live := c.procs[:0]
		for _, q := range c.procs {
			if q.state == stateDone {
				continue
			}
			live = append(live, q)
			if t := q.effectiveTime(); q == c.current {
				cur = t
			} else if t < rest {
				rest = t
			}
		}
		c.procs = live
		sh.curEff[i], sh.restMin[i] = cur, rest
	}
	sh.nStale = 0
	min1, min2, minRest, slot := Forever, Forever, Forever, -1
	for i, t := range sh.curEff {
		minRest = min(minRest, sh.restMin[i])
		if t < min1 {
			min1, min2, slot = t, min1, i
		} else {
			min2 = min(min2, t)
			if t == min1 && t < Forever && sh.cpus[i].current.ID < sh.cpus[slot].current.ID {
				slot = i
			}
		}
	}
	sh.min1, sh.min2, sh.minRest, sh.min1Slot = min1, min2, minRest, slot
}

// minEffective returns the earliest effective time of any live process in
// the shard: the next moment anything can happen here.
func (sh *shard) minEffective() Time {
	sh.summarize()
	return min(sh.min1, sh.minRest)
}

// preemptSleeper displaces a dispatched sleeping process (it merely parks
// on the CPU until its wake time) as soon as any other process could run
// earlier: the CPU is semantically idle while its occupant sleeps.
func preemptSleeper(c *CPU) {
	p := c.current
	if p == nil || p.state != stateWaiting || !p.sleeping {
		return
	}
	for _, q := range c.queue {
		if q.state == stateDone {
			continue
		}
		t := q.now
		if q.state == stateBlocked || q.state == stateWaiting {
			t = q.wakeAt
		}
		if t < p.wakeAt {
			c.lastRan = p
			c.current = nil
			c.queue = append(c.queue, p)
			p.state = stateBlocked
			c.touch()
			return
		}
	}
}

// dispatch installs a current process on an idle CPU, choosing the process
// that can run earliest; ties go to the lowest priority value, then FIFO
// order. Ordering by readiness (not priority alone) keeps a sleeping
// process's future wake tick from starving an immediately-ready one.
//
//hot:path
func (sh *shard) dispatch(c *CPU) {
	if c.current != nil {
		return
	}
	// Prune finished processes from the queue.
	live := c.queue[:0]
	for _, q := range c.queue {
		if q.state != stateDone {
			live = append(live, q)
		}
	}
	c.queue = live
	best := -1
	var bestReady Time
	for i, q := range c.queue {
		if (q.state == stateBlocked || q.state == stateWaiting) && q.wakeAt >= Forever {
			continue // nothing to run until notified
		}
		ready := maxTime(q.now, c.freeAt)
		if q.state == stateBlocked || q.state == stateWaiting {
			ready = maxTime(q.wakeAt, c.freeAt)
		}
		if best == -1 || ready < bestReady ||
			(ready == bestReady && q.Priority < c.queue[best].Priority) {
			best = i
			bestReady = ready
		}
	}
	if best == -1 {
		return
	}
	p := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	start := maxTime(p.now, c.freeAt)
	if c.lastRan != nil && c.lastRan != p {
		start += sh.eng.cfg.CtxSwitch
		sh.ctxSwitches++
		if sh.tracer != nil {
			sh.tracer.Emit(trace.Event{T: start, Cat: "sched", Ev: "switch", P: p.ID, O: c.id})
		}
	}
	resumeAt := start
	switch p.state {
	case stateBlocked:
		// Parked on the CPU until its wake time. The clock advance to the
		// wake is committed at pick time, not here: a notification sent
		// later in global order may still pull the wake earlier, and the
		// window engine's cross-shard notifications always land after
		// dispatch (at a window barrier). Committing eagerly would make
		// the two engines resume such sleepers at different times.
		p.now = start
		resumeAt = maxTime(start, p.wakeAt)
	case stateWaiting:
		// Keeps waiting; pick will resume it at its wake time.
		p.now = start
	default:
		p.now = start
	}
	c.current = p
	c.sliceEnd = Forever
	if sh.eng.cfg.Quantum > 0 {
		// For a parked sleeper the quantum starts at its (current) wake
		// time; NotifyAt keeps sliceEnd in step if the wake moves earlier.
		c.sliceEnd = resumeAt + sh.eng.cfg.Quantum
	}
	c.touch()
}

// pick returns the schedulable process with the smallest effective time
// below the horizon. The nil status distinguishes "nothing before the
// horizon" (WindowHorizon) from "nothing ever" (WindowIdle). Ties go to
// the lowest process ID.
func (sh *shard) pick(horizon Time) (*Proc, WindowStatus) {
	sh.summarize()
	if sh.min1 >= Forever {
		return nil, WindowIdle
	}
	if sh.min1 >= horizon {
		return nil, WindowHorizon
	}
	best := sh.cpus[sh.min1Slot].current
	if best.state == stateWaiting || best.state == stateBlocked {
		// Its event has arrived; advance its clock to the wake time. (A
		// blocked process parked on its CPU commits the wake here — see
		// dispatch. Its sleeping flag is deliberately left set, matching
		// the historical dispatch-time transition.)
		wasWaiting := best.state == stateWaiting
		best.now = maxTime(best.now, best.wakeAt)
		best.wakeAt = Forever
		best.state = stateReady
		if wasWaiting {
			best.sleeping = false
		}
		best.cpu.touch()
	}
	if best.wakeAt <= best.now {
		// A pending notification the process has already reached (it was
		// delivered while the process was descheduled mid-run, clamped to
		// its clock then). The process observes it now; left in place it
		// would mask a later, larger re-arm (NotifyAt keeps the minimum)
		// and force a spurious wake at the next park — at a wall-order-
		// dependent point, since the two engines deliver cross-node
		// notifications at different moments (put time vs window barrier).
		best.wakeAt = Forever
	}
	return best, WindowHorizon
}

// windowFor computes how far p, the process pick just returned, may run
// before yielding: the minimum effective time of any other process in the
// shard, clamped to the shard's horizon. p is the current process at
// min1Slot, and pick's wake commit changed nothing else, so the summary
// still holds for every other process.
func (sh *shard) windowFor(p *Proc, horizon Time) Time {
	w := min(horizon, sh.minRest, sh.min2)
	if checkCache {
		sh.checkWindow(p, horizon, w)
	}
	return w
}

// reschedule handles quantum expiry and blocking after p yields.
func (sh *shard) reschedule(p *Proc) {
	c := p.cpu
	if c.current != p {
		return
	}
	switch p.state {
	case stateDone, stateBlocked:
		c.lastRan = p
		c.freeAt = maxTime(c.freeAt, p.now)
		c.current = nil
		if p.state == stateBlocked {
			c.queue = append(c.queue, p)
		}
	case stateReady, stateWaiting:
		if p.now >= c.sliceEnd && anyoneElseWants(c) {
			// Quantum expired and another process wants the CPU.
			c.lastRan = p
			c.freeAt = maxTime(c.freeAt, p.now)
			c.current = nil
			c.queue = append(c.queue, p)
			if sh.tracer != nil {
				sh.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "preempt", P: p.ID, O: c.id})
			}
		}
	}
}

func anyoneElseWants(c *CPU) bool {
	for _, q := range c.queue {
		if q.state == stateDone {
			continue
		}
		if (q.state == stateBlocked || q.state == stateWaiting) && q.wakeAt >= Forever {
			continue
		}
		return true
	}
	return false
}

func (e *Engine) allDone() bool {
	for _, p := range e.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// StallError reports a watchdog-detected livelock: the engine kept
// scheduling but no process performed charged work for the configured
// budget. It carries a full diagnostic dump.
type StallError struct {
	At           Time // simulated time at detection
	LastProgress Time // time of the last charged work
	Budget       Time // configured WatchdogCycles
	Iters        int64
	Procs        []string // one line per live process
	CPUs         []string // one line per CPU scheduling state
	Extra        string   // higher-layer dump-hook output
	Recent       []trace.Event
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: stall watchdog: no process progress for %d cycles (t=%d, last progress t=%d, %d scheduler iterations)",
		e.At-e.LastProgress, e.At, e.LastProgress, e.Iters)
	fmt.Fprintf(&b, "\nlive processes:")
	for _, p := range e.Procs {
		fmt.Fprintf(&b, "\n  %s", p)
	}
	fmt.Fprintf(&b, "\ncpus:")
	for _, c := range e.CPUs {
		fmt.Fprintf(&b, "\n  %s", c)
	}
	if e.Extra != "" {
		fmt.Fprintf(&b, "\n%s", e.Extra)
	}
	if len(e.Recent) > 0 {
		fmt.Fprintf(&b, "\nlast %d trace events:", len(e.Recent))
		for _, ev := range e.Recent {
			fmt.Fprintf(&b, "\n  t=%d %s/%s p=%d o=%d blk=%d a=%d s=%s", ev.T, ev.Cat, ev.Ev, ev.P, ev.O, ev.Blk, ev.A, ev.S)
		}
	}
	return b.String()
}

// stallErrorAt builds a StallError for the watchdog trip recorded in sh.
// On a parallel engine it runs only at a window barrier, when every shard
// is parked, so the multi-process dump is a consistent snapshot.
func (e *Engine) stallErrorAt(sh *shard, lastProgress Time) error {
	p := sh.stalled
	se := &StallError{
		At:           p.now,
		LastProgress: lastProgress,
		Budget:       e.cfg.WatchdogCycles,
		Iters:        sh.itersNoProgress,
	}
	for _, q := range e.procs {
		if q.state == stateDone {
			continue
		}
		se.Procs = append(se.Procs, fmt.Sprintf("%s[%d] cpu%d %s t=%d wake=%d", q.Name, q.ID, q.cpu.id, q.state, q.now, q.wakeAt))
	}
	for i := range e.cpus {
		se.CPUs = append(se.CPUs, e.DescribeCPU(i))
	}
	if e.dumpHook != nil {
		se.Extra = e.dumpHook()
	}
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "stall", P: p.ID})
		se.Recent = e.tracer.Recent(32)
	}
	return se
}

// DescribeCPU reports the scheduling state of one CPU (debugging aid).
func (e *Engine) DescribeCPU(idx int) string {
	c := e.cpus[idx]
	cur := "idle"
	if c.current != nil {
		p := c.current
		cur = fmt.Sprintf("%s[%d] %v now=%d wake=%d", p.Name, p.ID, p.state, p.now, p.wakeAt)
	}
	q := ""
	for _, p := range c.queue {
		q += fmt.Sprintf(" %s[%d]:%v@%d/w%d", p.Name, p.ID, p.state, p.now, p.wakeAt)
	}
	return fmt.Sprintf("cpu%d sliceEnd=%d freeAt=%d cur={%s} queue=[%s]", idx, c.sliceEnd, c.freeAt, cur, q)
}

// fail records a guest failure against the shard; the scheduler's next
// iteration (or the coordinator at the barrier) surfaces it.
func (sh *shard) fail(err error) {
	if sh.err == nil {
		sh.err = err
	}
}

// drain resumes every process still parked, with abort set, so its
// coroutine unwinds and exits. It goes one process at a time, in process
// order: next returns only when the process has fully unwound (running its
// deferred cleanups, which may touch state shared with other processes),
// so no two cleanups ever interleave.
func (e *Engine) drain() {
	for _, p := range e.procs {
		if p.state != stateDone {
			p.abort = true
			p.window = Forever
			p.next()
		}
	}
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
