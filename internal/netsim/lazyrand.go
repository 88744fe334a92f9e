package netsim

import (
	"math/rand"
	"reflect"
)

// lazyRand reproduces the value stream of rand.New(rand.NewSource(seed))
// without building its 607-word register. math/rand is an additive
// lagged-Fibonacci generator: draw k updates vec[334−k] += vec[607−k].
// For k ≤ 273 neither word has been written yet, so the draw reads only
// two words of the freshly seeded register, and each of those is three
// steps of the seeding LCG (xₙ = 48271ⁿ·x₀ mod 2³¹−1) XORed with a
// constant. One draw therefore costs six multiply-mods, and a stream
// costs 16 bytes instead of ~4.9 KB plus ~1,800 LCG steps of seeding.
// Past draw 273 the recurrence reads words it has itself written, so
// the stream falls back to a real source advanced to the same position.
type lazyRand struct {
	x0   uint32     // the seed as Seed reduces it, in [1, 2³¹−2]
	n    uint32     // draws taken so far
	tail *rand.Rand // the real source, only once n exceeds lfTap
}

const (
	lfLen   = 607       // math/rand's rngLen
	lfTap   = 273       // math/rand's rngTap: the last lazily computable draw
	lfMod   = 1<<31 - 1 // the seeding LCG's modulus
	lfMul   = 48271     // the seeding LCG's multiplier
	lfSkip  = 20        // LCG steps Seed discards before the first word
	lfSteps = lfSkip + 1 + 3*lfLen
)

// lfPow[n] is 48271ⁿ mod 2³¹−1, so xₙ = lfPow[n]·x₀ mod 2³¹−1.
var lfPow = func() (p [lfSteps]uint64) {
	p[0] = 1
	for i := 1; i < lfSteps; i++ {
		p[i] = p[i-1] * lfMul % lfMod
	}
	return p
}()

// lfCooked is math/rand's rngCooked table, recovered from one seeded
// register by XORing out the LCG words rather than copied: a toolchain
// that changes the generator fails loudly here instead of silently
// drifting from the stream the goldens were recorded with.
var lfCooked = func() (c [lfLen]uint64) {
	v := reflect.ValueOf(rand.NewSource(1))
	if v.Kind() == reflect.Pointer && v.Elem().Kind() == reflect.Struct {
		v = v.Elem().FieldByName("vec")
	}
	if !v.IsValid() || v.Kind() != reflect.Array || v.Len() != lfLen {
		panic("netsim: math/rand source has no 607-word vec register")
	}
	for i := range c {
		c[i] = uint64(v.Index(i).Int()) ^ lfSeedWord(1, i)
	}
	return c
}()

// lfSeedWord is word i of the register Seed builds from x0, before the
// cooked constant is mixed in.
func lfSeedWord(x0 uint32, i int) uint64 {
	x := uint64(x0)
	p := lfPow[lfSkip+1+3*i:]
	return (p[0]*x%lfMod)<<40 ^ (p[1]*x%lfMod)<<20 ^ p[2]*x%lfMod
}

// newLazyRand starts the stream of rand.NewSource(seed), reducing the
// seed exactly as rngSource.Seed does.
func newLazyRand(seed int64) lazyRand {
	seed %= lfMod
	if seed < 0 {
		seed += lfMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return lazyRand{x0: uint32(seed)}
}

// int63 is the stream's next Int63.
func (r *lazyRand) int63() int64 {
	r.n++
	if r.n <= lfTap {
		feed, tap := lfLen-lfTap-int(r.n), lfLen-int(r.n)
		w := lfSeedWord(r.x0, feed) ^ lfCooked[feed]
		w += lfSeedWord(r.x0, tap) ^ lfCooked[tap]
		return int64(w &^ (1 << 63))
	}
	if r.tail == nil {
		r.tail = rand.New(rand.NewSource(int64(r.x0)))
		for i := uint32(1); i < r.n; i++ {
			r.tail.Int63()
		}
	}
	return r.tail.Int63()
}

// float64 is rand.Rand.Float64 over the stream, including its redraw
// when the division rounds up to 1.
func (r *lazyRand) float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
