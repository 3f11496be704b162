package analysis

import (
	"math"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of xs in place using the
// iterative radix-2 Cooley–Tukey algorithm. The length must be a power of
// two; use NextPow2 and zero-padding otherwise.
func FFT(xs []complex128) {
	n := len(xs)
	if n == 0 || n&(n-1) != 0 {
		panic("analysis: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			xs[i], xs[j] = xs[j], xs[i]
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := xs[start+k]
				b := xs[start+k+half] * w
				xs[start+k] = a + b
				xs[start+k+half] = a - b
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Periodogram estimates the power spectral density of xs at frequencies
// k/(nfft*dt) for k = 0..nfft/2, where nfft is the power of two >= len(xs)
// (data are mean-removed and zero-padded). It returns the frequencies in
// cycles per sample unit and the corresponding power values.
func Periodogram(xs []float64) (freqs, power []float64) {
	if len(xs) == 0 {
		return nil, nil
	}
	centered := Demean(xs)
	nfft := NextPow2(len(centered))
	buf := make([]complex128, nfft)
	for i, x := range centered {
		buf[i] = complex(x, 0)
	}
	FFT(buf)
	half := nfft/2 + 1
	freqs = make([]float64, half)
	power = make([]float64, half)
	norm := float64(len(centered))
	for k := 0; k < half; k++ {
		freqs[k] = float64(k) / float64(nfft)
		re, im := real(buf[k]), imag(buf[k])
		power[k] = (re*re + im*im) / norm
	}
	return freqs, power
}

// CorrelogramFFT estimates the spectrum by Fourier-transforming the
// autocorrelation function out to maxLag (the classical Blackman–Tukey
// correlogram the paper's Figure 5a labels "FFT"). A Bartlett (triangular)
// lag window tapers the ACF.
func CorrelogramFFT(xs []float64, maxLag int) (freqs, power []float64) {
	acf := Autocorrelation(xs, maxLag)
	if len(acf) == 0 {
		return nil, nil
	}
	m := len(acf) - 1
	// Symmetric extension windowed by Bartlett weights, length 2m (even).
	nfft := NextPow2(2 * (m + 1))
	buf := make([]complex128, nfft)
	for lag := 0; lag <= m; lag++ {
		w := 1 - float64(lag)/float64(m+1)
		buf[lag] = complex(acf[lag]*w, 0)
		if lag > 0 {
			buf[nfft-lag] = complex(acf[lag]*w, 0)
		}
	}
	FFT(buf)
	half := nfft/2 + 1
	freqs = make([]float64, half)
	power = make([]float64, half)
	for k := 0; k < half; k++ {
		freqs[k] = float64(k) / float64(nfft)
		power[k] = real(buf[k])
		if power[k] < 0 {
			power[k] = 0 // windowed estimates can go slightly negative
		}
	}
	return freqs, power
}

// Peak is one local maximum of a spectrum.
type Peak struct {
	// Freq is in cycles per sample.
	Freq float64
	// Power is the spectral density at the peak.
	Power float64
}

// TopPeaks finds the k largest local maxima of power (excluding the zero
// frequency), ordered by descending power.
func TopPeaks(freqs, power []float64, k int) []Peak {
	var peaks []Peak
	for i := 1; i < len(power)-1; i++ {
		if freqs[i] == 0 {
			continue
		}
		if power[i] >= power[i-1] && power[i] >= power[i+1] {
			peaks = append(peaks, Peak{Freq: freqs[i], Power: power[i]})
		}
	}
	// Selection sort is fine for the small k we use.
	for i := 0; i < len(peaks) && i < k; i++ {
		best := i
		for j := i + 1; j < len(peaks); j++ {
			if peaks[j].Power > peaks[best].Power {
				best = j
			}
		}
		peaks[i], peaks[best] = peaks[best], peaks[i]
	}
	if len(peaks) > k {
		peaks = peaks[:k]
	}
	return peaks
}

// PeriodOf converts a frequency in cycles/sample to a period in samples
// (infinity at zero frequency).
func PeriodOf(freq float64) float64 {
	if freq == 0 {
		return math.Inf(1)
	}
	return 1 / freq
}
