// Package randx provides deterministic, seedable random number generation
// and the noise distributions used by the differential privacy mechanisms
// in this module (Laplace, exponential, Bernoulli).
//
// All randomness in the repository flows through *Rand so that every
// experiment, test, and benchmark is reproducible from a single seed.
// Independent sub-streams are derived with Split, which uses a SplitMix64
// step so that child streams are decorrelated from the parent.
package randx

import (
	"math"
	"math/rand/v2"
)

// Rand is a deterministic random source with samplers for the
// distributions required by the estimators and mechanisms.
type Rand struct {
	src *rand.Rand
}

// New returns a Rand seeded with the given seed. Equal seeds yield
// identical streams.
func New(seed uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(seed, splitmix64(seed)))}
}

// splitmix64 is the finalizer of the SplitMix64 generator; it is used to
// expand one 64-bit seed into the second PCG word and to derive child seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives a new Rand whose stream is independent of the receiver's
// future output. The receiver advances by one draw.
func (r *Rand) Split() *Rand {
	return New(splitmix64(r.src.Uint64()))
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Normal returns a standard normal sample.
func (r *Rand) Normal() float64 { return r.src.NormFloat64() }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Exponential returns a sample from Exp(rate), i.e. with mean 1/rate.
// It panics if rate <= 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exponential rate must be positive")
	}
	return r.src.ExpFloat64() / rate
}

// Laplace returns a sample from the Laplace distribution with mean zero
// and the given scale (density 1/(2b)·exp(-|x|/b)). A scale of zero
// returns 0 so callers can express "no noise" uniformly.
func (r *Rand) Laplace(scale float64) float64 {
	if scale == 0 {
		return 0
	}
	if scale < 0 {
		panic("randx: Laplace scale must be non-negative")
	}
	// Inverse CDF on u ~ Uniform(-1/2, 1/2):
	// x = -b * sgn(u) * ln(1 - 2|u|).
	// A uniform of exactly 0 would give u = −1/2 and ln(0) = −Inf, so it
	// is redrawn, as in Geometric; the largest uniform, 1 − 2⁻⁵³, still
	// gives a finite ln(2⁻⁵²).
	f := r.src.Float64()
	for f == 0 {
		f = r.src.Float64()
	}
	u := f - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Cauchy returns a sample from the Cauchy distribution with median
// zero and the given scale (density 1/(πb·(1+(x/b)²))), via the
// inverse CDF x = b·tan(π(u − ½)). A scale of zero returns 0 so
// callers can express "no noise" uniformly.
func (r *Rand) Cauchy(scale float64) float64 {
	if scale == 0 {
		return 0
	}
	if scale < 0 {
		panic("randx: Cauchy scale must be non-negative")
	}
	return scale * math.Tan(math.Pi*(r.src.Float64()-0.5))
}

// LaplaceVec returns n independent Laplace(scale) samples.
func (r *Rand) LaplaceVec(n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Laplace(scale)
	}
	return out
}

// Geometric returns a sample from the geometric distribution on
// {0, 1, 2, ...} with success probability p. It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("randx: Geometric p must be in (0, 1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(ln(U) / ln(1-p)).
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Binomial returns a sample from Binomial(n, p) in O(n) time for small n
// and via waiting-time (geometric skip) sampling otherwise, which runs in
// O(n·p) expected time.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("randx: Binomial n must be non-negative")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	// Waiting-time method: skip ahead by geometric gaps.
	count := 0
	i := r.Geometric(p)
	for i < n {
		count++
		i += 1 + r.Geometric(p)
	}
	return count
}

// Shuffle permutes the integers in s uniformly at random.
func (r *Rand) Shuffle(s []int) {
	r.src.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
