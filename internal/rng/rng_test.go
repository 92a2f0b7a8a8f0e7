package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical 64-bit draws out of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := Split(7, 0)
	b := Split(7, 1)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			t.Fatalf("split streams collided at draw %d", i)
		}
	}
}

func TestCloneReplaysFuture(t *testing.T) {
	a := New(99)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	c := a.Clone()
	for i := 0; i < 100; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := src.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	src := New(11)
	for i := 0; i < 10000; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

// geometricLoop is the bit-by-bit Geometric that TrailingZeros64
// replaced: the oracle for its values and its stream consumption.
func geometricLoop(src *Source) int {
	flips := 1
	for {
		w := src.Uint64()
		if w != 0 {
			for w&1 == 0 {
				flips++
				w >>= 1
			}
			return flips
		}
		flips += 64
	}
}

// emitting returns a Source whose next two outputs are w1 and w2.
// xoshiro256** outputs rotl(s[1]·5, 7)·9, which inverts because 5 and 9
// are odd, and its update sets the next s[1] to s[0] ^ s[1] ^ s[2].
func emitting(w1, w2 uint64) *Source {
	inverse := func(a uint64) uint64 { // Newton's iteration mod 2^64
		x := a
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	pre := func(w uint64) uint64 { return bits.RotateLeft64(w*inverse(9), -7) * inverse(5) }
	src := &Source{}
	src.s[1] = pre(w1)
	src.s[2] = pre(w2) ^ src.s[1]
	src.s[3] = 1
	return src
}

// TestGeometricMatchesBitLoop checks Geometric against the bit loop on
// crafted words — a head first, a head last, the all-tails word that
// forces a refill — and on random words and streams: equal values, and
// equal generator state afterwards.
func TestGeometricMatchesBitLoop(t *testing.T) {
	type wordCase struct {
		w1, w2 uint64
		want   int // 0: random words, checked against the loop only
	}
	words := []wordCase{
		{1, 0, 1},
		{1 << 63, 0, 64},
		{0, 1, 65},
		{0, 1 << 63, 128},
		{0, 0b1000, 68},
	}
	r := New(99)
	for i := 0; i < 1000; i++ {
		words = append(words, wordCase{r.Uint64(), r.Uint64(), 0})
	}
	for _, tc := range words {
		src := emitting(tc.w1, tc.w2)
		probe := src.Clone()
		if a, b := probe.Uint64(), probe.Uint64(); a != tc.w1 || b != tc.w2 {
			t.Fatalf("crafted source emits %#x, %#x, want %#x, %#x", a, b, tc.w1, tc.w2)
		}
		loop := src.Clone()
		got, want := src.Geometric(), geometricLoop(loop)
		if got != want || src.s != loop.s {
			t.Fatalf("words %#x, %#x: Geometric = %d, bit loop = %d (state equal: %v)",
				tc.w1, tc.w2, got, want, src.s == loop.s)
		}
		if tc.want != 0 && got != tc.want {
			t.Fatalf("words %#x, %#x: Geometric = %d, want %d", tc.w1, tc.w2, got, tc.want)
		}
	}
	for seed := uint64(0); seed < 8; seed++ {
		a, b := New(seed), New(seed)
		for i := 0; i < 10000; i++ {
			if x, y := a.Geometric(), geometricLoop(b); x != y {
				t.Fatalf("seed %d draw %d: Geometric = %d, bit loop = %d", seed, i, x, y)
			}
		}
		if a.s != b.s {
			t.Fatalf("seed %d: streams diverged", seed)
		}
	}
}

// Geometric(1/2) has mean 2 and P(X >= r) = 2^{1-r}.
func TestGeometricMoments(t *testing.T) {
	src := New(13)
	const trials = 200000
	sum := 0
	atLeast5 := 0
	for i := 0; i < trials; i++ {
		g := src.Geometric()
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += g
		if g >= 5 {
			atLeast5++
		}
	}
	mean := float64(sum) / trials
	if math.Abs(mean-2.0) > 0.02 {
		t.Errorf("Geometric mean = %v, want ~2.0", mean)
	}
	pAtLeast5 := float64(atLeast5) / trials
	if math.Abs(pAtLeast5-1.0/16) > 0.01 {
		t.Errorf("P(X>=5) = %v, want ~0.0625", pAtLeast5)
	}
}

func TestGeometricPMean(t *testing.T) {
	src := New(17)
	const trials = 100000
	p := 0.2
	sum := 0
	for i := 0; i < trials; i++ {
		sum += src.GeometricP(p)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-1/p) > 0.1 {
		t.Errorf("GeometricP(0.2) mean = %v, want ~5", mean)
	}
}

func TestGeometricPOne(t *testing.T) {
	src := New(18)
	for i := 0; i < 100; i++ {
		if g := src.GeometricP(1); g != 1 {
			t.Fatalf("GeometricP(1) = %d, want 1", g)
		}
	}
}

func TestExpMean(t *testing.T) {
	src := New(19)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		e := src.Exp()
		if e < 0 {
			t.Fatalf("Exp returned negative %v", e)
		}
		sum += e
	}
	mean := sum / trials
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("Exp mean = %v, want ~1.0", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(23)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	src := New(29)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[src.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("Perm first element %d appeared %d times, want ~%v", v, c, want)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	src := New(31)
	for _, tc := range []struct{ n, m int }{{10, 0}, {10, 1}, {10, 10}, {1000, 5}, {1000, 900}} {
		s := src.Sample(tc.n, tc.m)
		if len(s) != tc.m {
			t.Fatalf("Sample(%d,%d) returned %d items", tc.n, tc.m, len(s))
		}
		seen := make(map[int]bool, tc.m)
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("Sample(%d,%d) invalid: %v", tc.n, tc.m, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleUniformMembership(t *testing.T) {
	src := New(37)
	const n, m, trials = 20, 3, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range src.Sample(n, m) {
			counts[v]++
		}
	}
	want := float64(trials*m) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("Sample element %d appeared %d times, want ~%v", v, c, want)
		}
	}
}

// Property: Shuffle preserves the multiset of elements.
func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, raw []int) bool {
		src := New(seed)
		orig := make([]int, len(raw))
		copy(orig, raw)
		src.Shuffle(raw)
		counts := map[int]int{}
		for _, v := range orig {
			counts[v]++
		}
		for _, v := range raw {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Split streams are self-consistent (same args, same stream).
func TestSplitDeterministicProperty(t *testing.T) {
	f := func(seed, sub uint64) bool {
		a := Split(seed, sub)
		b := Split(seed, sub)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64Uniformity(t *testing.T) {
	// Chi-square-ish check on the top 3 bits.
	src := New(41)
	const trials = 160000
	counts := make([]int, 8)
	for i := 0; i < trials; i++ {
		counts[src.Uint64()>>61]++
	}
	want := float64(trials) / 8
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Errorf("bucket %d: %d draws, want ~%v", b, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += src.Uint64()
	}
	_ = sink
}

func BenchmarkGeometric(b *testing.B) {
	src := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += src.Geometric()
	}
	_ = sink
}
