package workload

import (
	"math"
	"math/rand"
	"testing"
)

// powExponents are the exponents the curve is held to: the generators'
// defaults (gcm 2.1, tpch and flash 2.2), a uniform draw (1), both
// sides of the curvature's sign change at 2, and a near-linear one.
var powExponents = []float64{1.05, 1.2, 1.5, 2, 2.1, 2.2, 3}

func powRef(u, y float64, n int64) int64 { return int64(math.Pow(u, y) * float64(n)) }

// adversarialU returns u near the preimages (k/n)^(1/y) of integer
// scaled values — the draws whose truncation the fast path cannot
// decide — nudged a few ulps to each side.
func adversarialU(y float64, n, k int64) []float64 {
	u0 := math.Pow(float64(k)/float64(n), 1/y)
	out := []float64{u0}
	up, down := u0, u0
	for i := 0; i < 3; i++ {
		up, down = math.Nextafter(up, 2), math.Nextafter(down, -1)
		out = append(out, up, down)
	}
	return out
}

func FuzzPowCurve(f *testing.F) {
	for yi, y := range powExponents {
		for _, n := range []int64{1, 7, 1000, 12500, 150000, 650000, 1_000_000} {
			for _, k := range []int64{1, n / 3, n / 2, n - 1} {
				if k <= 0 {
					continue
				}
				for _, u := range adversarialU(y, n, k) {
					// The inverse of the fuzz body's raw → u map; exact
					// for every u of at least 2^-10.
					f.Add(uint64(u*(1<<63)), uint32(n-1), uint8(yi))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw uint64, nRaw uint32, yRaw uint8) {
		u := float64(raw&(1<<63-1)) / (1 << 63) // rand.Float64's map
		n := 1 + int64(nRaw%1_000_000)
		y := powExponents[int(yRaw)%len(powExponents)]
		if got, want := PowCurveOf(y).Scale(u, n), powRef(u, y, n); got != want {
			t.Fatalf("u=%v (%#x) y=%v n=%d: curve %d, math.Pow %d", u, raw, y, n, got, want)
		}
	})
}

// TestPowCurveMatchesPow sweeps random draws at every exponent, the
// domain sizes the generators use, and the edges of the table.
func TestPowCurveMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, y := range append(powExponents, 1, 0.5, 0, -1, math.NaN()) {
		c := PowCurveOf(y)
		for _, n := range []int64{-7, 0, 1, 24, 12500, 150000, 650000, 1 << 40} {
			for _, u := range []float64{0, 1.0 / powSteps, 0.5, math.Nextafter(1, 0), 1} {
				if got, want := c.Scale(u, n), powRef(u, y, n); got != want {
					t.Fatalf("u=%v y=%v n=%d: curve %d, math.Pow %d", u, y, n, got, want)
				}
			}
			for i := 0; i < 20_000; i++ {
				u := rng.Float64()
				if got, want := c.Scale(u, n), powRef(u, y, n); got != want {
					t.Fatalf("u=%v y=%v n=%d: curve %d, math.Pow %d", u, y, n, got, want)
				}
			}
		}
	}
}

func TestPowCurveIsShared(t *testing.T) {
	if PowCurveOf(2.2) != PowCurveOf(1+1.2) {
		t.Fatal("two curves built for one exponent")
	}
}

func BenchmarkPow(b *testing.B) {
	us := make([]float64, 1<<12)
	rng := rand.New(rand.NewSource(1))
	for i := range us {
		us[i] = rng.Float64()
	}
	const y, n = 2.2, 150000
	var sink int64
	b.Run("math.Pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += powRef(us[i&(len(us)-1)], y, n)
		}
	})
	b.Run("PowCurve", func(b *testing.B) {
		c := PowCurveOf(y)
		for i := 0; i < b.N; i++ {
			sink += c.Scale(us[i&(len(us)-1)], n)
		}
	})
	_ = sink
}
