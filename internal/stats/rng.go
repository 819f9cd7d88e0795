package stats

import "math"

// RNG is a small, deterministic xoshiro256**-based generator. The workload
// models need reproducible pseudo-randomness so that every run of an
// experiment regenerates the same traces (the paper's experiments are
// replayed from fixed logs; ours are replayed from fixed seeds).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed via
// splitmix64, the recommended seeding procedure for xoshiro.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.seed(seed)
	return r
}

// seed is NewRNG's body, kept apart so NewRNG inlines and a generator
// that does not outlive its caller is not allocated.
func (r *RNG) seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a standard normal variate (Box–Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Pareto returns a bounded Pareto variate on [lo, hi] with shape alpha.
// Display-update sizes are heavy-tailed (Figure 3), and a bounded Pareto
// captures both the mass of tiny updates and the occasional full-window
// repaint.
func (r *RNG) Pareto(lo, hi, alpha float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("stats: Pareto requires 0 < lo < hi")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to the weights. It panics if the weights are empty or sum to zero.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("stats: zero total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
