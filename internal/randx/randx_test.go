package randx

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(123)
	const n = 200000
	scale := 2.5
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := r.Laplace(scale)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// E|X| = scale for Laplace.
	if math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("Laplace E|X| = %v, want %v", meanAbs, scale)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	r := New(5)
	for i := 0; i < 10; i++ {
		if x := r.Laplace(0); x != 0 {
			t.Fatalf("Laplace(0) = %v, want 0", x)
		}
	}
}

// seqSource replays fixed 64-bit outputs and then repeats the last one.
type seqSource []uint64

func (s *seqSource) Uint64() uint64 {
	v := (*s)[0]
	if len(*s) > 1 {
		*s = (*s)[1:]
	}
	return v
}

func fixedRand(outs ...uint64) *Rand {
	s := seqSource(outs)
	return &Rand{src: rand.New(&s)}
}

// TestLaplaceFiniteAtUniformEdges drives the inverse CDF with the
// extreme uniforms Float64 can return: exactly 0 (redrawn, since it
// maps to ln 0), the smallest positive 2⁻⁵³ and the largest 1 − 2⁻⁵³.
// No draw may be ±Inf: a release is never non-finite.
func TestLaplaceFiniteAtUniformEdges(t *testing.T) {
	const top = 1<<53 - 1 // Float64() = 1 − 2⁻⁵³
	lo := fixedRand(1).Laplace(2)
	hi := fixedRand(top).Laplace(2)
	want := 2 * 52 * math.Ln2 // −b·ln(2⁻⁵²)
	if lo != -want || hi != want {
		t.Fatalf("Laplace at u = 2⁻⁵³, 1 − 2⁻⁵³: %v, %v; want ∓%v", lo, hi, want)
	}
	if got := fixedRand(0, 0, top).Laplace(2); got != hi {
		t.Fatalf("zero uniforms not redrawn: Laplace = %v, want %v", got, hi)
	}
	for _, u := range []uint64{0, 1, 1 << 52, top} {
		if x := fixedRand(u, 1<<52).Laplace(1); math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("Laplace with first uniform %d/2⁵³ = %v", u, x)
		}
	}
}

func TestLaplaceTailSymmetry(t *testing.T) {
	r := New(99)
	pos, neg := 0, 0
	for i := 0; i < 100000; i++ {
		if r.Laplace(1) > 0 {
			pos++
		} else {
			neg++
		}
	}
	ratio := float64(pos) / float64(neg)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("sign ratio = %v, want ~1", ratio)
	}
}

// TestCauchyQuartiles: the Cauchy distribution has no moments, so the
// distribution is checked through its quartiles — the CDF puts 1/4 of
// the mass below −scale and 1/4 above +scale — plus median symmetry.
func TestCauchyQuartiles(t *testing.T) {
	r := New(321)
	const n = 200000
	scale := 2.5
	below, above, pos := 0, 0, 0
	for i := 0; i < n; i++ {
		x := r.Cauchy(scale)
		if x < -scale {
			below++
		}
		if x > scale {
			above++
		}
		if x > 0 {
			pos++
		}
	}
	for name, count := range map[string]int{"below -scale": below, "above +scale": above} {
		if frac := float64(count) / n; math.Abs(frac-0.25) > 0.01 {
			t.Errorf("Cauchy mass %s = %v, want ~0.25", name, frac)
		}
	}
	if frac := float64(pos) / n; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("Cauchy positive mass = %v, want ~0.5", frac)
	}
}

func TestCauchyZeroScaleAndPanic(t *testing.T) {
	r := New(7)
	for i := 0; i < 10; i++ {
		if x := r.Cauchy(0); x != 0 {
			t.Fatalf("Cauchy(0) = %v, want 0", x)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("negative scale did not panic")
		}
	}()
	r.Cauchy(-1)
}

func TestExponentialMean(t *testing.T) {
	r := New(321)
	const n = 200000
	rate := 3.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exponential mean = %v, want %v", mean, 1/rate)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(55)
	const n = 200000
	p := 0.25
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // mean of geometric on {0,1,...}
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("Geometric mean = %v, want %v", mean, want)
	}
}

func TestBinomialMeanVar(t *testing.T) {
	r := New(77)
	const trials = 20000
	n, p := 50, 0.2
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		x := float64(r.Binomial(n, p))
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-float64(n)*p) > 0.15 {
		t.Errorf("Binomial mean = %v, want %v", mean, float64(n)*p)
	}
	wantVar := float64(n) * p * (1 - p)
	if math.Abs(variance-wantVar) > 0.5 {
		t.Errorf("Binomial variance = %v, want %v", variance, wantVar)
	}
}

func TestBinomialBounds(t *testing.T) {
	r := New(3)
	err := quick.Check(func(seed uint64, n16 uint16, pRaw float64) bool {
		n := int(n16 % 200)
		p := math.Abs(pRaw)
		p -= math.Floor(p) // p in [0,1)
		x := r.Binomial(n, p)
		return x >= 0 && x <= n
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestBinomialHighP(t *testing.T) {
	r := New(8)
	const trials = 50000
	n, p := 20, 0.9
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(n, p))
	}
	mean := sum / trials
	if math.Abs(mean-18) > 0.1 {
		t.Errorf("Binomial(20, .9) mean = %v, want 18", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestLaplaceVecLength(t *testing.T) {
	r := New(4)
	v := r.LaplaceVec(37, 1.5)
	if len(v) != 37 {
		t.Fatalf("LaplaceVec length = %d, want 37", len(v))
	}
}

func TestPanics(t *testing.T) {
	r := New(0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Exponential(0)", func() { r.Exponential(0) })
	mustPanic("Laplace(-1)", func() { r.Laplace(-1) })
	mustPanic("Geometric(0)", func() { r.Geometric(0) })
	mustPanic("Binomial(-1,.5)", func() { r.Binomial(-1, 0.5) })
}
