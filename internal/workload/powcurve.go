package workload

import (
	"math"
	"math/rand"
	"sync"
)

// PowCurve is the power-law key draw of the skewed generators: a key in
// [0, n) is int64(math.Pow(u, y) * float64(n)) for a uniform u in
// [0, 1), clamped to n-1. It returns that expression bit for bit at a
// fraction of math.Pow's cost, so streams drawn through it are the
// streams math.Pow drew.
//
// The fast path linearly interpolates a table of math.Pow(i/powSteps, y)
// and trusts the scaled value only when it lies further from an integer
// than the interval's error bound: the interpolation error
// h²/8 · |y(y-1)| · max x^(y-2) over the interval (times powSafety),
// plus powSlack for math.Pow's own error and the rounding of both
// evaluations, scaled by n, plus powMargin. Truncation cannot tell two
// values apart that no integer separates, so the truncated fast value
// is the truncated exact one; anything closer to an integer takes the
// exact expression.
type PowCurve struct {
	y float64
	// cells is nil when y admits no table (y <= 0 or NaN): every draw
	// then takes the exact expression.
	cells *[powSteps]powCell
}

// powCell is one interpolation interval: the table value at its left
// end, the rise to its right end, and the absolute error bound of an
// interpolated value against math.Pow (before scaling by n).
type powCell struct{ lo, d, tol float64 }

const (
	powSteps  = 4096
	powSafety = 2
	powSlack  = 4e-14
	powMargin = 1e-9
)

var powCurves sync.Map // math.Float64bits(y) → *PowCurve

// PowCurveOf returns the curve of exponent y. Curves are built once per
// exponent and shared by every caller: they are read-only after
// construction.
func PowCurveOf(y float64) *PowCurve {
	key := math.Float64bits(y)
	if c, ok := powCurves.Load(key); ok {
		return c.(*PowCurve)
	}
	c, _ := powCurves.LoadOrStore(key, newPowCurve(y))
	return c.(*PowCurve)
}

func newPowCurve(y float64) *PowCurve {
	c := &PowCurve{y: y}
	if !(y > 0) {
		return c
	}
	const h = 1.0 / powSteps
	curv := math.Abs(y * (y - 1))
	c.cells = new([powSteps]powCell)
	lo := math.Pow(0, y)
	for i := range c.cells {
		x0, x1 := float64(i)*h, float64(i+1)*h
		hi := math.Pow(x1, y)
		tol := powSlack
		if curv != 0 {
			// |f''| = |y(y-1)| x^(y-2) is monotone in x, so its maximum
			// over the interval sits at one end (+Inf at x = 0 for
			// y < 2: that interval always takes the exact expression).
			tol += powSafety * h * h / 8 * curv * math.Max(math.Pow(x0, y-2), math.Pow(x1, y-2))
		}
		c.cells[i] = powCell{lo: lo, d: hi - lo, tol: tol}
		lo = hi
	}
	return c
}

// Scale returns int64(math.Pow(u, y) * float64(n)), bit for bit, for
// any u and n.
func (c *PowCurve) Scale(u float64, n int64) int64 {
	x := u * powSteps
	i := int(x)
	if c.cells != nil && uint(i) < powSteps && n > 0 {
		cell := &c.cells[i]
		fn := float64(n)
		v := (cell.lo + (x-float64(i))*cell.d) * fn
		k := int64(v)
		f, tol := v-float64(k), cell.tol*fn+powMargin
		if f > tol && f < 1-tol {
			return k
		}
	}
	return int64(math.Pow(u, c.y) * float64(n))
}

// Draw draws one key in [0, n): Scale of rng's next Float64, clamped to
// n-1.
func (c *PowCurve) Draw(rng *rand.Rand, n int64) int64 {
	k := c.Scale(rng.Float64(), n)
	if k >= n {
		k = n - 1
	}
	return k
}
