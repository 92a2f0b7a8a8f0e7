// Package sim provides the synchronous execution kernel for the protocol
// simulator: a reusable worker pool for stepping all nodes of a round in
// parallel, double-buffered state exchange (so a round reads only the
// previous round's sends, as the synchronous model requires), and
// message/bit accounting.
//
// The kernel is deliberately protocol-agnostic: the counting protocol, the
// baselines, and the adversaries all drive it from their own packages.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of worker goroutines executing chunked parallel-for
// loops. A Pool amortizes goroutine startup across the tens of thousands
// of rounds a protocol run executes, and is shareable: callers (the
// core simulation arena, the sweep runner's per-worker arenas) own a Pool
// across many runs instead of constructing one per run.
//
// A Pool serializes its parallel-for calls: For/ForChunks must not be
// invoked concurrently from multiple goroutines (the completion WaitGroup
// is part of the Pool so the dispatch path allocates nothing).
type Pool struct {
	workers int
	tasks   chan task
	wg      sync.WaitGroup
	done    sync.WaitGroup // completion of the in-flight ForChunks
	closed  bool
}

type task struct {
	fn    func(start, end int)
	start int
	end   int
}

// NewPool creates a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan task, workers*2)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.fn(t.start, t.end)
				p.done.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// For runs fn(i) for every i in [0, n), partitioned into contiguous chunks
// across the pool. It blocks until all iterations complete. fn must be
// safe for concurrent invocation on distinct indices.
func (p *Pool) For(n int, fn func(i int)) {
	p.ForChunks(n, func(start, end int) {
		for i := start; i < end; i++ {
			fn(i)
		}
	})
}

// ForChunks runs fn(start, end) over a partition of [0, n) into roughly
// equal contiguous chunks, one chunk per worker. Small n executes inline.
func (p *Pool) ForChunks(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	// Below this size the dispatch overhead dominates; run serially.
	const serialCutoff = 256
	if p.workers == 1 || n < serialCutoff {
		fn(0, n)
		return
	}
	chunks := p.workers
	if chunks > n {
		chunks = n
	}
	p.done.Add(chunks)
	size := (n + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		start := c * size
		end := start + size
		if end > n {
			end = n
		}
		p.tasks <- task{fn: fn, start: start, end: end}
	}
	p.done.Wait()
}

// Close shuts the pool down. The Pool must not be used afterwards.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.tasks)
	p.wg.Wait()
}

// Counters accumulates communication cost across a run. All methods are
// safe for concurrent use.
type Counters struct {
	messages atomic.Int64
	bits     atomic.Int64
	maxBits  atomic.Int64
	rounds   atomic.Int64
}

// CountMessage records one message of the given size in bits.
func (c *Counters) CountMessage(bits int) {
	c.messages.Add(1)
	c.bits.Add(int64(bits))
	for {
		cur := c.maxBits.Load()
		if int64(bits) <= cur || c.maxBits.CompareAndSwap(cur, int64(bits)) {
			return
		}
	}
}

// CountMessages records count identical messages of the given size.
func (c *Counters) CountMessages(count, bits int) {
	if count <= 0 {
		return
	}
	c.messages.Add(int64(count))
	c.bits.Add(int64(count) * int64(bits))
	for {
		cur := c.maxBits.Load()
		if int64(bits) <= cur || c.maxBits.CompareAndSwap(cur, int64(bits)) {
			return
		}
	}
}

// AddAggregate folds a pre-computed batch of messages and bits into the
// totals without touching the max-message tracker. It exists for callers
// that account cost analytically for work they proved equivalent to
// already-counted messages (the core engine's quiescent-node flooding
// cost): the batch's largest message is by construction no larger than one
// already recorded through CountMessage(s).
func (c *Counters) AddAggregate(messages, bits int64) {
	c.messages.Add(messages)
	c.bits.Add(bits)
}

// AddAggregateMax folds a pre-reduced batch of messages, bits, and the
// batch's largest single message into the totals in O(1). It is the fold
// the core engine's msgTally.publish uses: each worker chunk accumulates
// message/bit sums and a running maximum on its stack, then publishes
// the whole chunk with one call — the exact totals (sums are
// order-independent) and the exact maximum (max of per-chunk maxima
// equals the global maximum) that per-message CountMessages calls would
// have produced, without the per-message atomic traffic.
func (c *Counters) AddAggregateMax(messages, bits, maxBits int64) {
	if messages != 0 || bits != 0 {
		c.messages.Add(messages)
		c.bits.Add(bits)
	}
	for {
		cur := c.maxBits.Load()
		if maxBits <= cur || c.maxBits.CompareAndSwap(cur, maxBits) {
			return
		}
	}
}

// CountRound records the completion of one synchronous round.
func (c *Counters) CountRound() { c.rounds.Add(1) }

// Reset zeroes all counters so the instance can account a new run.
func (c *Counters) Reset() {
	c.messages.Store(0)
	c.bits.Store(0)
	c.maxBits.Store(0)
	c.rounds.Store(0)
}

// Messages returns the total messages recorded.
func (c *Counters) Messages() int64 { return c.messages.Load() }

// Bits returns the total bits recorded.
func (c *Counters) Bits() int64 { return c.bits.Load() }

// MaxMessageBits returns the size of the largest single message.
func (c *Counters) MaxMessageBits() int64 { return c.maxBits.Load() }

// Rounds returns the number of rounds recorded.
func (c *Counters) Rounds() int64 { return c.rounds.Load() }

// Snapshot is a plain-value copy of the counters.
type Snapshot struct {
	Messages int64
	Bits     int64
	MaxBits  int64
	Rounds   int64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Messages: c.Messages(),
		Bits:     c.Bits(),
		MaxBits:  c.MaxMessageBits(),
		Rounds:   c.Rounds(),
	}
}

// Exchange is a double-buffered per-node value board: in each synchronous
// round every node writes its outgoing value to Next and reads its
// neighbors' values from Cur, which holds what was sent at the end of the
// previous round. Swap advances the round.
type Exchange[T any] struct {
	cur  []T
	next []T
}

// NewExchange creates an Exchange for n nodes.
func NewExchange[T any](n int) *Exchange[T] {
	return &Exchange[T]{cur: make([]T, n), next: make([]T, n)}
}

// Cur returns the board of values sent last round (read side).
func (e *Exchange[T]) Cur() []T { return e.cur }

// Next returns the board being written this round (write side).
func (e *Exchange[T]) Next() []T { return e.next }

// Swap publishes Next as the new Cur. The returned slice is the new write
// side (the old Cur), whose contents are stale and must be overwritten.
func (e *Exchange[T]) Swap() {
	e.cur, e.next = e.next, e.cur
}

// Reset zeroes both buffers.
func (e *Exchange[T]) Reset() {
	var zero T
	for i := range e.cur {
		e.cur[i] = zero
		e.next[i] = zero
	}
}
