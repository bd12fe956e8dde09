package dist

import (
	"math"
	"runtime"
)

// fixedPow is x^y for one exponent y and many bases, equal bit for bit
// to math.Pow(x, y). math.Pow splits y into an integer part yi and a
// fraction yf ∈ (−0.5, 0.5] on every call, takes Exp(yf·Log(x)), then
// multiplies in x^yi by square-and-multiply over Frexp's mantissa of x,
// renormalizing each product to [0.5, 1) and applying the collected
// binary exponent with one final Ldexp. fixedPow splits y once, and runs
// the same multiplications on the full value of x instead.
//
// Exactness. Every value in that sequence differs between the two
// versions by an exact power of two, and rounding to nearest is
// scale-invariant (round(c·2^k) = round(c)·2^k) as long as both c and
// c·2^k are normal. For x ∈ [2⁻¹⁶, 2¹⁶] and 0 < y ≤ 60 every full-value
// product, partial result and square alike, is x raised to at most
// |yf| + yi ≤ 60.5 in magnitude, so it lies in [2⁻⁹⁶⁸, 2⁹⁶⁸]: none
// overflows or becomes subnormal, the mantissa products (≥ 2⁻¹⁴) are
// normal too, and math.Pow's final Ldexp lands on a normal number,
// exactly. The last squaring, which math.Pow
// computes but never uses, is skipped: on the full value it could leave
// the range.
//
// Fallback. Every other case goes to math.Pow itself: y ≤ 0, NaN or
// above 60; y = 0.5 and y = 1, which math.Pow answers by Sqrt and by x;
// any x outside [2⁻¹⁶, 2¹⁶], NaN, zero, subnormals and ±Inf included;
// and every case on s390x, whose math.Pow is its own assembly routine
// rather than the sequence above.
type fixedPow struct {
	y, yf float64
	yi    uint64
	fast  bool // y admits the exact path
}

// Bounds of the exact path (see fixedPow).
const (
	powMinBase = 0x1p-16
	powMaxBase = 0x1p16
	powMaxExp  = 60
)

// newFixedPow splits y the way math.Pow does.
func newFixedPow(y float64) fixedPow {
	p := fixedPow{y: y}
	if runtime.GOARCH == "s390x" || !(y > 0 && y <= powMaxExp) || y == 0.5 || y == 1 {
		return p
	}
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	p.yi, p.yf, p.fast = uint64(yi), yf, true
	return p
}

// of returns math.Pow(x, p.y).
func (p fixedPow) of(x float64) float64 {
	if !p.fast || !(x >= powMinBase && x <= powMaxBase) {
		return math.Pow(x, p.y)
	}
	a := 1.0
	if p.yf != 0 {
		a = math.Exp(p.yf * math.Log(x))
	}
	for i := p.yi; i != 0; {
		if i&1 == 1 {
			a *= x
		}
		if i >>= 1; i != 0 {
			x *= x
		}
	}
	// The explicit conversion keeps a caller's x − of(…) from fusing
	// with the last product into one FMA, which math.Pow's opaque
	// result never could.
	return float64(a)
}

// pow is math.Pow(x, y) for a one-off power; loops over many bases with
// one exponent build a fixedPow once instead.
func pow(x, y float64) float64 { return newFixedPow(y).of(x) }
