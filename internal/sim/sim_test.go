package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPoolForCoversAllIndices(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 10000
	hits := make([]int32, n)
	p.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestPoolForSmallN(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 255} {
		count := 0 // serial path, no atomics needed
		p.For(n, func(i int) { count++ })
		if count != n {
			t.Fatalf("n=%d: %d iterations", n, count)
		}
	}
}

func TestPoolForChunksPartition(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const n = 1000
	var covered [n]int32
	p.ForChunks(n, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.For(1000, func(i int) { total.Add(1) })
	}
	if total.Load() != 50000 {
		t.Fatalf("total = %d, want 50000", total.Load())
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestCounters(t *testing.T) {
	var c Counters
	c.CountMessage(64)
	c.CountMessage(128)
	c.CountMessages(10, 32)
	c.CountRound()
	c.CountRound()
	if c.Messages() != 12 {
		t.Fatalf("messages = %d", c.Messages())
	}
	if c.Bits() != 64+128+320 {
		t.Fatalf("bits = %d", c.Bits())
	}
	if c.MaxMessageBits() != 128 {
		t.Fatalf("max bits = %d", c.MaxMessageBits())
	}
	if c.Rounds() != 2 {
		t.Fatalf("rounds = %d", c.Rounds())
	}
	snap := c.Snapshot()
	if snap.Messages != 12 || snap.Bits != 512 || snap.MaxBits != 128 || snap.Rounds != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestAddAggregateMax pins the O(1) counter fold that the core engine's
// msgTally.publish uses against per-message accounting: partitioning a message stream into arbitrary
// chunks, pre-reducing each chunk to (messages, bits, maxBits), and
// folding the chunks must reproduce the exact totals and maximum that
// per-message CountMessages calls produce.
func TestAddAggregateMax(t *testing.T) {
	sizes := []int{64, 70, 65, 91, 64, 80, 70, 66, 72, 95, 64, 68}
	counts := []int{3, 1, 7, 2, 5, 1, 4, 2, 9, 1, 6, 3}
	var perMsg Counters
	for i, bits := range sizes {
		perMsg.CountMessages(counts[i], bits)
	}
	for _, chunks := range [][]int{{12}, {1, 11}, {4, 4, 4}, {5, 3, 2, 2}} {
		var folded Counters
		start := 0
		for _, width := range chunks {
			var msgs, bits, maxb int64
			for i := start; i < start+width; i++ {
				msgs += int64(counts[i])
				bits += int64(counts[i]) * int64(sizes[i])
				if int64(sizes[i]) > maxb {
					maxb = int64(sizes[i])
				}
			}
			folded.AddAggregateMax(msgs, bits, maxb)
			start += width
		}
		// An empty fold (a chunk that charged nothing) must be a no-op.
		folded.AddAggregateMax(0, 0, 0)
		if folded.Messages() != perMsg.Messages() || folded.Bits() != perMsg.Bits() || folded.MaxMessageBits() != perMsg.MaxMessageBits() {
			t.Fatalf("chunks %v: folded (%d, %d, max %d) != per-message (%d, %d, max %d)",
				chunks, folded.Messages(), folded.Bits(), folded.MaxMessageBits(),
				perMsg.Messages(), perMsg.Bits(), perMsg.MaxMessageBits())
		}
	}
}

func TestCountersZeroCount(t *testing.T) {
	var c Counters
	c.CountMessages(0, 100)
	c.CountMessages(-5, 100)
	if c.Messages() != 0 || c.Bits() != 0 {
		t.Fatal("non-positive counts should be ignored")
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	p := NewPool(4)
	defer p.Close()
	p.For(10000, func(i int) { c.CountMessage(i % 100) })
	if c.Messages() != 10000 {
		t.Fatalf("messages = %d", c.Messages())
	}
	if c.MaxMessageBits() != 99 {
		t.Fatalf("max = %d", c.MaxMessageBits())
	}
}

func TestExchangeRoundSemantics(t *testing.T) {
	e := NewExchange[int](3)
	// Round 1: everyone writes their ID+1.
	for i := range e.Next() {
		e.Next()[i] = i + 1
	}
	// Before swap, Cur is still zero (previous round's sends).
	for i, v := range e.Cur() {
		if v != 0 {
			t.Fatalf("Cur[%d] = %d before swap", i, v)
		}
	}
	e.Swap()
	for i, v := range e.Cur() {
		if v != i+1 {
			t.Fatalf("Cur[%d] = %d after swap, want %d", i, v, i+1)
		}
	}
}

func TestExchangeReset(t *testing.T) {
	e := NewExchange[int64](4)
	e.Next()[2] = 7
	e.Swap()
	e.Next()[1] = 9
	e.Reset()
	for i := 0; i < 4; i++ {
		if e.Cur()[i] != 0 || e.Next()[i] != 0 {
			t.Fatal("Reset left residue")
		}
	}
}

// Property: a parallel sum over the pool equals the serial sum.
func TestPoolSumProperty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(raw []int32) bool {
		var par atomic.Int64
		p.For(len(raw), func(i int) { par.Add(int64(raw[i])) })
		var ser int64
		for _, v := range raw {
			ser += int64(v)
		}
		return par.Load() == ser
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPoolFor(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForChunks(len(data), func(start, end int) {
			for j := start; j < end; j++ {
				data[j] = data[j]*0.5 + 1
			}
		})
	}
}
