package core

import "repro/internal/sim"

// TimeCategory classifies where a process's cycles go, matching the
// execution-time breakdowns of Figures 4 and 5.
type TimeCategory int

const (
	// CatTask is useful application work.
	CatTask TimeCategory = iota
	// CatCheck is in-line miss-check overhead.
	CatCheck
	// CatPoll is loop back-edge polling overhead.
	CatPoll
	// CatReadStall is time stalled on read misses.
	CatReadStall
	// CatWriteStall is time stalled on write misses (SC, or RC limits).
	CatWriteStall
	// CatSyncStall is time stalled acquiring locks or waiting at barriers.
	CatSyncStall
	// CatMBStall is time stalled at memory barriers for pending stores.
	CatMBStall
	// CatBlocked is time blocked in system calls (e.g. pid_block).
	CatBlocked
	// CatMessage is time servicing protocol messages while not stalled.
	CatMessage
	numCategories
)

var categoryNames = [...]string{
	CatTask:       "task",
	CatCheck:      "check",
	CatPoll:       "poll",
	CatReadStall:  "read",
	CatWriteStall: "write",
	CatSyncStall:  "sync",
	CatMBStall:    "mb",
	CatBlocked:    "blocked",
	CatMessage:    "message",
}

func (c TimeCategory) String() string { return categoryNames[c] }

// Categories lists all time categories in display order.
func Categories() []TimeCategory {
	out := make([]TimeCategory, numCategories)
	for i := range out {
		out[i] = TimeCategory(i)
	}
	return out
}

// Counter names one event counter. Counters are stored in a flat array
// indexed by this enum (like TimeCategory), so aggregation, tracing and
// reporting iterate the enum and a newly added counter cannot be silently
// dropped from any of them.
type Counter int

const (
	CntLoads Counter = iota
	CntStores
	CntLoadChecks   // in-line load checks executed
	CntStoreChecks  // in-line store checks executed
	CntBatchChecks  // per-line checks saved into batches
	CntElidedChecks // accesses executed raw because the rewriter proved a check redundant
	CntPolls
	CntReadMisses  // remote (inter-agent) read misses
	CntWriteMisses // remote (inter-agent) write misses
	CntLocalFills  // SMP: private table filled from shared table
	CntFalseMisses // flag value matched but state was valid (§2.2)
	CntMessagesSent
	CntMessagesHandled
	CntInvalidations // invalidations applied at this agent
	CntDowngradesSent
	CntDowngradesDirect // applied via direct downgrade (§4.3.4)
	CntDowngradesReceived
	CntLLs
	CntSCs
	CntSCFailures
	CntSCHardware // store-conditionals completed in "hardware"
	CntPrefetches
	CntMemoryBarriers
	CntLockAcquires
	CntBarrierWaits
	CntBatchesIssued
	CntBatchStoreReissues // §4.1: stores reissued after losing the line
	CntDeferredFlagFills  // §4.1: invalidations deferred past a batch
	CntSyscallValidations
	CntForks
	CntRetransmits    // reliability: messages retransmitted after timeout
	CntNetAcksSent    // reliability: delivery acknowledgments sent
	CntDupsSuppressed // reliability: duplicate deliveries filtered out
	CntHeldArrivals   // reliability: out-of-order arrivals buffered for resequencing
	numCounters
)

var counterNames = [numCounters]string{
	CntLoads:              "loads",
	CntStores:             "stores",
	CntLoadChecks:         "load-checks",
	CntStoreChecks:        "store-checks",
	CntBatchChecks:        "batch-checks",
	CntElidedChecks:       "elided-checks",
	CntPolls:              "polls",
	CntReadMisses:         "read-misses",
	CntWriteMisses:        "write-misses",
	CntLocalFills:         "local-fills",
	CntFalseMisses:        "false-misses",
	CntMessagesSent:       "messages-sent",
	CntMessagesHandled:    "messages-handled",
	CntInvalidations:      "invalidations",
	CntDowngradesSent:     "downgrades-sent",
	CntDowngradesDirect:   "downgrades-direct",
	CntDowngradesReceived: "downgrades-received",
	CntLLs:                "lls",
	CntSCs:                "scs",
	CntSCFailures:         "sc-failures",
	CntSCHardware:         "sc-hardware",
	CntPrefetches:         "prefetches",
	CntMemoryBarriers:     "memory-barriers",
	CntLockAcquires:       "lock-acquires",
	CntBarrierWaits:       "barrier-waits",
	CntBatchesIssued:      "batches-issued",
	CntBatchStoreReissues: "batch-store-reissues",
	CntDeferredFlagFills:  "deferred-flag-fills",
	CntSyscallValidations: "syscall-validations",
	CntForks:              "forks",
	CntRetransmits:        "retransmits",
	CntNetAcksSent:        "net-acks-sent",
	CntDupsSuppressed:     "dups-suppressed",
	CntHeldArrivals:       "held-arrivals",
}

func (c Counter) String() string { return counterNames[c] }

// Counters lists all counters in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Stats aggregates per-process counters and the time breakdown.
type Stats struct {
	Time [numCategories]sim.Time
	// N holds every event counter, indexed by Counter. Protocol code
	// increments entries directly (p.stats.N[CntLoads]++); readers usually
	// go through the named accessors below.
	N [numCounters]int64
}

// Get returns one counter's value.
func (s *Stats) Get(c Counter) int64 { return s.N[c] }

// Total returns the sum of all time categories (the process's active life).
func (s *Stats) Total() sim.Time {
	var t sim.Time
	for _, v := range s.Time {
		t += v
	}
	return t
}

// Busy returns total time excluding blocked time.
func (s *Stats) Busy() sim.Time { return s.Total() - s.Time[CatBlocked] }

// Add accumulates other into s.
func (s *Stats) Add(o *Stats) {
	for i := range s.Time {
		s.Time[i] += o.Time[i]
	}
	for i := range s.N {
		s.N[i] += o.N[i]
	}
}

// Named accessors, kept source-compatible (modulo the call parentheses) with
// the former field-per-counter representation.

func (s *Stats) Loads() int64              { return s.N[CntLoads] }
func (s *Stats) Stores() int64             { return s.N[CntStores] }
func (s *Stats) LoadChecks() int64         { return s.N[CntLoadChecks] }
func (s *Stats) StoreChecks() int64        { return s.N[CntStoreChecks] }
func (s *Stats) BatchChecks() int64        { return s.N[CntBatchChecks] }
func (s *Stats) ElidedChecks() int64       { return s.N[CntElidedChecks] }
func (s *Stats) Polls() int64              { return s.N[CntPolls] }
func (s *Stats) ReadMisses() int64         { return s.N[CntReadMisses] }
func (s *Stats) WriteMisses() int64        { return s.N[CntWriteMisses] }
func (s *Stats) LocalFills() int64         { return s.N[CntLocalFills] }
func (s *Stats) FalseMisses() int64        { return s.N[CntFalseMisses] }
func (s *Stats) MessagesSent() int64       { return s.N[CntMessagesSent] }
func (s *Stats) Invalidations() int64      { return s.N[CntInvalidations] }
func (s *Stats) DowngradesSent() int64     { return s.N[CntDowngradesSent] }
func (s *Stats) DowngradesDirect() int64   { return s.N[CntDowngradesDirect] }
func (s *Stats) LLs() int64                { return s.N[CntLLs] }
func (s *Stats) SCs() int64                { return s.N[CntSCs] }
func (s *Stats) SCFailures() int64         { return s.N[CntSCFailures] }
func (s *Stats) SCHardware() int64         { return s.N[CntSCHardware] }
func (s *Stats) Prefetches() int64         { return s.N[CntPrefetches] }
func (s *Stats) LockAcquires() int64       { return s.N[CntLockAcquires] }
func (s *Stats) BarrierWaits() int64       { return s.N[CntBarrierWaits] }
func (s *Stats) BatchesIssued() int64      { return s.N[CntBatchesIssued] }
func (s *Stats) SyscallValidations() int64 { return s.N[CntSyscallValidations] }
func (s *Stats) Forks() int64              { return s.N[CntForks] }
func (s *Stats) Retransmits() int64        { return s.N[CntRetransmits] }
func (s *Stats) NetAcksSent() int64        { return s.N[CntNetAcksSent] }
func (s *Stats) DupsSuppressed() int64     { return s.N[CntDupsSuppressed] }
func (s *Stats) HeldArrivals() int64       { return s.N[CntHeldArrivals] }
