package session

import "sync/atomic"

// Counters is an engine-wide atomic rollup of session activity. One
// Counters instance is shared by every session the owning engine opens:
// each session is bound to it at Open and updates it inline (under its
// own lock, with atomic adds) as operations commit, so a reader gets a
// live snapshot without touching any session lock — an in-flight
// optimizer run holding a session for minutes cannot block a stats
// query.
//
// The counts are unexported: Session.record is their only writer, and
// it books each operation into the session's own Stats in the same
// call, so the per-session accounting and the engine rollup cannot
// drift apart. Readers use the methods below.
type Counters struct {
	n [opRequired]atomic.Int64 // indexed by op
}

// op is one kind of accounted session operation.
type op int

const (
	opOpen op = iota
	opClose
	opWhatIf // one what-if evaluation (single or batch member)
	opResize
	opCheckpoint
	opRollback
	opRequired // backward required-time pass; per-session only, not rolled up
)

// Opened returns the number of sessions ever opened against c.
func (c *Counters) Opened() int64 { return c.n[opOpen].Load() }

// Live returns the number of sessions opened against c and not yet
// closed. Closes are read first: every close follows its open, so the
// difference never goes negative under concurrent traffic.
func (c *Counters) Live() int64 {
	closed := c.n[opClose].Load()
	return c.n[opOpen].Load() - closed
}

// WhatIfs returns the what-if evaluations served, counting each batch
// member.
func (c *Counters) WhatIfs() int64 { return c.n[opWhatIf].Load() }

// Resizes returns the committed resizes.
func (c *Counters) Resizes() int64 { return c.n[opResize].Load() }

// Checkpoints returns the checkpoints taken.
func (c *Counters) Checkpoints() int64 { return c.n[opCheckpoint].Load() }

// Rollbacks returns the rollbacks applied.
func (c *Counters) Rollbacks() int64 { return c.n[opRollback].Load() }

// record books n operations of kind k, which together cost nodes
// arrival computations, into the session's Stats and, when the session
// was opened with a rollup, into the engine-wide Counters. It is the
// only writer of either. Callers hold the session lock; Open calls it
// before the session is shared.
func (s *Session) record(k op, n, nodes int) {
	switch k {
	case opWhatIf:
		s.stats.WhatIfs += n
		s.stats.WhatIfNodesVisited += nodes
	case opResize:
		s.stats.Resizes += n
		s.stats.NodesRecomputed += nodes
		s.stats.LastResizeNodes = nodes
	case opCheckpoint:
		s.stats.Checkpoints += n
	case opRollback:
		s.stats.Rollbacks += n
	case opRequired:
		s.stats.RequiredPasses += n
	}
	if s.rollup != nil && k < opRequired {
		s.rollup.n[k].Add(int64(n))
	}
}
