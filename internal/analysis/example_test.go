package analysis_test

import (
	"fmt"
	"math/rand"

	"instability"
	"instability/internal/analysis"
	"instability/internal/workload"
)

// Example_spectral runs the paper's §5.1 time-series method on a generated
// six-week campaign: log-detrend the hourly instability series, then look
// for its cycles by autocorrelation, FFT correlogram, Burg maximum entropy,
// a test against the 99% white-noise level, and singular-spectrum analysis.
// The 24-hour cycle leads every one of them.
func Example_spectral() {
	cfg := workload.SmallConfig()
	cfg.Days = 42
	p := instability.NewPipeline()
	if _, _, err := instability.RunScenario(cfg, p); err != nil {
		panic(err)
	}
	_, hourly := p.Acc.HourlySeries()
	detrended, slope := analysis.LogDetrend(hourly)
	fmt.Printf("%d hourly samples, log-linear trend %+.4f/hour\n", len(hourly), slope)

	acf := analysis.Autocorrelation(detrended, 24*8)
	fmt.Printf("autocorrelation: 12h %+.2f, 24h %+.2f, 7d %+.2f\n", acf[12], acf[24], acf[168])

	freqs, power := analysis.CorrelogramFFT(detrended, 24*14)
	fmt.Print("FFT correlogram peaks:")
	for _, pk := range analysis.TopPeaks(freqs, power, 3) {
		fmt.Printf(" %.1fh", analysis.PeriodOf(pk.Freq))
	}
	mf, mp := analysis.MEMSpectrum(detrended, 72, 1024)
	fmt.Print("\nBurg maximum-entropy peaks:")
	for _, pk := range analysis.TopPeaks(mf, mp, 3) {
		fmt.Printf(" %.1fh", analysis.PeriodOf(pk.Freq))
	}
	fmt.Print("\nabove the 99% white-noise level:")
	for _, pk := range analysis.SignificantPeaks(detrended, 5, 30, 0.99, rand.New(rand.NewSource(7))) {
		fmt.Printf(" %.1fh", analysis.PeriodOf(pk.Freq))
	}
	fmt.Println("\nsingular-spectrum components:")
	for i, c := range analysis.SSA(detrended, 24*8, 3) {
		fmt.Printf("  %d: %.1f%% of variance @ %.1fh\n", i+1, c.VarianceShare*100, c.Period)
	}
	// Output:
	// 1008 hourly samples, log-linear trend +0.0005/hour
	// autocorrelation: 12h -0.20, 24h +0.29, 7d +0.29
	// FFT correlogram peaks: 23.8h 170.7h 85.3h
	// Burg maximum-entropy peaks: 23.8h 113.7h 4.0h
	// above the 99% white-noise level: 23.8h 170.7h 85.3h 7.5h 20.9h
	// singular-spectrum components:
	//   1: 11.1% of variance @ 23.3h
	//   2: 11.1% of variance @ 23.3h
	//   3: 2.4% of variance @ 256.0h
}
