package dist

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// bytesToFloats decodes a fuzz payload into a float64 slice, keeping
// whatever bit patterns the fuzzer invents (including NaN and ±Inf).
func bytesToFloats(data []byte) []float64 {
	out := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
		data = data[8:]
	}
	return out
}

// FuzzFitZipf asserts the fitter's contract on arbitrary input: it
// either returns an error or a finite fit — it never panics and never
// reports a non-finite exponent.
func FuzzFitZipf(f *testing.F) {
	f.Add([]byte{})         // empty
	f.Add(make([]byte, 8))  // single zero value
	f.Add(make([]byte, 64)) // all zeros
	seed := make([]byte, 0, 64)
	for _, v := range []float64{5, 5, 5, 5} { // constant
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	bad := make([]byte, 0, 32)
	for _, v := range []float64{1, math.NaN(), math.Inf(1), -2} {
		bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(v))
	}
	f.Add(bad)
	good := make([]byte, 0, 64)
	for _, v := range []float64{8, 4, 2, 1, 0.5, 0.25} {
		good = binary.LittleEndian.AppendUint64(good, math.Float64bits(v))
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		freqs := bytesToFloats(data)
		fit, err := FitZipf(freqs)
		if err != nil {
			return
		}
		if math.IsNaN(fit.Alpha) || math.IsInf(fit.Alpha, 0) {
			t.Fatalf("accepted fit has α = %v", fit.Alpha)
		}
		if math.IsNaN(fit.R2) || fit.R2 < -1e-9 || fit.R2 > 1+1e-9 {
			t.Fatalf("accepted fit has R² = %v", fit.R2)
		}
	})
}

// FuzzKS asserts KS never panics and only ever returns NaN or a value in
// [0, 1] for arbitrary samples against a fixed model, and that KSSorted
// on the sorted sample returns KS's exact bits.
func FuzzKS(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := bytesToFloats(data)
		model := Lognormal{Sigma: 1.2, Mu: 1}
		ks := KS(xs, model)
		if !math.IsNaN(ks) && (ks < 0 || ks > 1) {
			t.Fatalf("KS = %v outside [0, 1]", ks)
		}
		sort.Float64s(xs)
		if ss := KSSorted(xs, model); math.Float64bits(ss) != math.Float64bits(ks) {
			t.Fatalf("KSSorted = %v on the sorted sample, KS = %v", ss, ks)
		}
		// Two-sample variant against a fixed healthy sample.
		ref := []float64{1, 2, 3, 4, 5}
		ks2 := KS2(xs, ref)
		if !math.IsNaN(ks2) && (ks2 < 0 || ks2 > 1) {
			t.Fatalf("KS2 = %v outside [0, 1]", ks2)
		}
	})
}

// FuzzFitters drives the sample-based fitters with arbitrary inputs:
// errors are fine, panics and non-finite accepted parameters are not. The
// composite cases also hold the truncated kernels under their windows to
// the reference kernels (oracle_test.go) bit for bit.
func FuzzFitters(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 80), uint8(1))
	durations := make([]byte, 0, 8*64)
	for _, v := range benchSample(64) {
		durations = binary.LittleEndian.AppendUint64(durations, math.Float64bits(v))
	}
	for which := uint8(2); which <= 4; which++ {
		f.Add(durations, which)
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		xs := bytesToFloats(data)
		check := func(name string, d Dist, err error) {
			if err != nil {
				return
			}
			if q := d.Quantile(0.5); math.IsNaN(q) {
				t.Fatalf("%s: accepted fit has NaN median", name)
			}
		}
		switch which % 5 {
		case 0:
			m, err := FitLognormal(xs)
			check("FitLognormal", m, err)
		case 1:
			m, err := FitLognormalCounts(xs)
			check("FitLognormalCounts", m, err)
			checkCountFitBitExact(t, xs)
		case 2:
			m, err := FitBimodalLognormal(xs, 64, 120)
			check("FitBimodalLognormal", m, err)
			checkKernelsBitExact(t, xs, 64, 120)
			checkKernelsBitExact(t, xs, 120, math.Inf(1))
		case 3:
			m, err := FitWeibullLognormal(xs, 0, 45)
			check("FitWeibullLognormal", m, err)
			checkKernelsBitExact(t, xs, 0, 45)
			checkKernelsBitExact(t, xs, 45, math.Inf(1))
		case 4:
			m, err := FitLognormalPareto(xs, 0, 103)
			check("FitLognormalPareto", m, err)
			checkKernelsBitExact(t, xs, 0, 103)
		}
	})
}
