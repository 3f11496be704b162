package analysis

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// ifft computes the inverse DFT in place (normalized by 1/n).
func ifft(xs []complex128) {
	n := len(xs)
	for i := range xs {
		xs[i] = cmplx.Conj(xs[i])
	}
	FFT(xs)
	for i := range xs {
		xs[i] = cmplx.Conj(xs[i]) / complex(float64(n), 0)
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	xs := []complex128{1, 0, 0, 0}
	FFT(xs)
	for i, x := range xs {
		if cmplx.Abs(x-1) > 1e-12 {
			t.Fatalf("bin %d = %v", i, x)
		}
	}
	// DFT of a pure complex exponential concentrates in one bin.
	n := 64
	sig := make([]complex128, n)
	for i := range sig {
		ang := 2 * math.Pi * 5 * float64(i) / float64(n)
		sig[i] = cmplx.Exp(complex(0, ang))
	}
	FFT(sig)
	for i, x := range sig {
		want := 0.0
		if i == 5 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(x)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %v, want %v", i, cmplx.Abs(x), want)
		}
	}
}

func TestFFTInverseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]complex128, 256)
	orig := make([]complex128, len(xs))
	for i := range xs {
		xs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = xs[i]
	}
	FFT(xs)
	ifft(xs)
	for i := range xs {
		if cmplx.Abs(xs[i]-orig[i]) > 1e-9 {
			t.Fatalf("ifft(fft) differs at %d: %v vs %v", i, xs[i], orig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 512
	xs := make([]complex128, n)
	timeEnergy := 0.0
	for i := range xs {
		v := rng.NormFloat64()
		xs[i] = complex(v, 0)
		timeEnergy += v * v
	}
	FFT(xs)
	freqEnergy := 0.0
	for _, x := range xs {
		freqEnergy += real(x)*real(x) + imag(x)*imag(x)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy)/timeEnergy > 1e-9 {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// synthDiurnalWeekly builds an hourly series with 24-hour and 168-hour
// cycles plus noise — the shape of the paper's August–September data.
func synthDiurnalWeekly(nHours int, rng *rand.Rand) []float64 {
	xs := make([]float64, nHours)
	for i := range xs {
		daily := math.Sin(2 * math.Pi * float64(i) / 24)
		weekly := 0.7 * math.Sin(2*math.Pi*float64(i)/168)
		xs[i] = 5 + 2*daily + 1.5*weekly + 0.3*rng.NormFloat64()
	}
	return xs
}

func TestPeriodogramFindsDailyAndWeeklyCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := synthDiurnalWeekly(24*61, rng) // ~2 months of hourly data
	freqs, power := Periodogram(xs)
	peaks := TopPeaks(freqs, power, 2)
	if len(peaks) != 2 {
		t.Fatalf("%d peaks", len(peaks))
	}
	periods := []float64{PeriodOf(peaks[0].Freq), PeriodOf(peaks[1].Freq)}
	found24, found168 := false, false
	for _, p := range periods {
		if p > 21 && p < 27 {
			found24 = true
		}
		if p > 140 && p < 200 {
			found168 = true
		}
	}
	if !found24 || !found168 {
		t.Fatalf("top periods %v, want ~24h and ~168h", periods)
	}
}

func TestCorrelogramFFTFindsDailyCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := synthDiurnalWeekly(24*61, rng)
	freqs, power := CorrelogramFFT(Demean(xs), 24*14)
	peaks := TopPeaks(freqs, power, 3)
	if len(peaks) == 0 {
		t.Fatal("no peaks")
	}
	found24 := false
	for _, p := range peaks {
		period := PeriodOf(p.Freq)
		if period > 21 && period < 27 {
			found24 = true
		}
	}
	if !found24 {
		t.Fatalf("correlogram peaks %v missing 24h", peaks)
	}
	for _, p := range power {
		if p < 0 {
			t.Fatal("windowed correlogram should be non-negative")
		}
	}
}

func TestBurgRecoverAR1(t *testing.T) {
	// Generate AR(1) x_t = 0.8 x_{t-1} + e and verify Burg recovers 0.8.
	rng := rand.New(rand.NewSource(13))
	n := 4096
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.8*xs[i-1] + rng.NormFloat64()
	}
	coeffs, sigma2 := Burg(xs, 1)
	if math.Abs(coeffs[0]-0.8) > 0.03 {
		t.Fatalf("AR coefficient %v, want ~0.8", coeffs[0])
	}
	if math.Abs(sigma2-1) > 0.1 {
		t.Fatalf("sigma2 %v, want ~1", sigma2)
	}
}

func TestBurgSpectrumPositiveAndPeaked(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	xs := synthDiurnalWeekly(24*61, rng)
	freqs, power := MEMSpectrum(xs, 48, 512)
	for _, p := range power {
		if p <= 0 {
			t.Fatal("MEM spectrum must be strictly positive")
		}
	}
	// Both the daily and the weekly cycle must appear among the top local
	// maxima (which dominates depends on peak sharpness).
	found24, foundLow := false, false
	for _, pk := range TopPeaks(freqs, power, 4) {
		period := PeriodOf(pk.Freq)
		if period > 20 && period < 30 {
			found24 = true
		}
		if period > 100 {
			foundLow = true
		}
	}
	if !found24 || !foundLow {
		t.Fatalf("MEM peaks %v missing 24h/weekly structure", TopPeaks(freqs, power, 4))
	}
}

func TestBurgRejectsBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Burg([]float64{1, 2}, 5)
}

func TestBurgZeroInput(t *testing.T) {
	coeffs, sigma2 := Burg(make([]float64, 64), 4)
	if sigma2 != 0 || len(coeffs) != 4 {
		t.Fatalf("zero input: coeffs %v sigma2 %v", coeffs, sigma2)
	}
}

func TestJacobiEigenKnownMatrix(t *testing.T) {
	// Symmetric matrix with known eigenvalues 3 and 1.
	a := [][]float64{{2, 1}, {1, 2}}
	eig, v := JacobiEigen(a)
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues %v", eig)
	}
	// Eigenvector for 3 is (1,1)/sqrt2 up to sign.
	if math.Abs(math.Abs(v[0][0])-math.Sqrt2/2) > 1e-8 || math.Abs(v[0][0]-v[1][0]) > 1e-8 {
		t.Fatalf("eigenvector %v %v", v[0][0], v[1][0])
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 12
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i][j], a[j][i] = v, v
		}
	}
	eig, v := JacobiEigen(a)
	// Verify A v_k = lambda_k v_k for each k.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			av := 0.0
			for j := 0; j < n; j++ {
				av += a[i][j] * v[j][k]
			}
			if math.Abs(av-eig[k]*v[i][k]) > 1e-8 {
				t.Fatalf("eigenpair %d fails at row %d: %v vs %v", k, i, av, eig[k]*v[i][k])
			}
		}
	}
	// Descending order.
	for k := 1; k < n; k++ {
		if eig[k] > eig[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", eig)
		}
	}
	// Input not mutated.
	if a[0][1] != a[1][0] {
		t.Fatal("input mutated")
	}
}

func TestSSAFindsOscillationPair(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	xs := synthDiurnalWeekly(24*61, rng)
	comps := SSA(xs, 72, 5)
	if len(comps) != 5 {
		t.Fatalf("%d components", len(comps))
	}
	// The 24-hour oscillation appears as a pair of components with period
	// near 24 samples; the weekly cycle near 168.
	found24 := 0
	found168 := 0
	for _, c := range comps {
		if c.Period > 20 && c.Period < 30 {
			found24++
		}
		if c.Period > 60 { // window of 72 limits resolvable period; weekly shows as low-freq
			found168++
		}
	}
	if found24 < 2 {
		t.Fatalf("components %+v missing the 24h pair", comps)
	}
	if found168 < 1 {
		t.Fatalf("components %+v missing a low-frequency (weekly) component", comps)
	}
	// Variance shares are positive and sorted descending.
	for i, c := range comps {
		if c.VarianceShare <= 0 || c.VarianceShare > 1 {
			t.Fatalf("component %d share %v", i, c.VarianceShare)
		}
		if i > 0 && c.Eigenvalue > comps[i-1].Eigenvalue+1e-9 {
			t.Fatalf("eigenvalues not sorted")
		}
	}
}

func TestSSAPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SSA(make([]float64, 10), 8, 2)
}

func TestSignificantPeaksAgainstWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := synthDiurnalWeekly(24*61, rng)
	peaks := SignificantPeaks(xs, 5, 30, 0.99, rng)
	if len(peaks) == 0 {
		t.Fatal("strong cycles should be significant")
	}
	// Pure white noise should produce few or no significant peaks at q=0.999.
	noise := make([]float64, 24*61)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	noisePeaks := SignificantPeaks(noise, 5, 40, 0.9999, rng)
	if len(noisePeaks) > 2 {
		t.Fatalf("white noise yielded %d significant peaks", len(noisePeaks))
	}
}

func TestDominantFreq(t *testing.T) {
	n := 128
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Cos(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	f := DominantFreq(xs)
	if math.Abs(f-8.0/float64(n)) > 1e-9 {
		t.Fatalf("dominant freq %v, want %v", f, 8.0/float64(n))
	}
}

func BenchmarkFFT4096(b *testing.B) {
	xs := make([]complex128, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, xs)
		FFT(buf)
	}
}

func BenchmarkBurg(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 2048)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.7*xs[i-1] + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Burg(xs, 32)
	}
}
