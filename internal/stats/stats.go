// Package stats provides the small statistical toolkit the evaluation
// uses: the paper's arithmetic-mean IPC aggregation, least-squares trend
// lines for the scaling figures, and the halved-slope extrapolation used
// for the Redwood-Cove-class estimates (Section 1, Table 3).
package stats

import "fmt"

// MeanIPC aggregates per-benchmark (cycles, instructions) pairs the way
// the paper does (Section 8.1, citing Eeckhout): arithmetic mean of cycles
// and of instructions separately, then their ratio.
func MeanIPC(cycles, insts []uint64) float64 {
	if len(cycles) == 0 || len(cycles) != len(insts) {
		return 0
	}
	var sc, si float64
	for i := range cycles {
		sc += float64(cycles[i])
		si += float64(insts[i])
	}
	if sc == 0 {
		return 0
	}
	return si / sc
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LinReg fits y = slope·x + intercept by least squares.
func LinReg(xs, ys []float64) (slope, intercept float64, err error) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0, 0, fmt.Errorf("stats: need ≥2 paired points, have %d/%d", len(xs), len(ys))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	slope = sxy / sxx
	return slope, my - slope*mx, nil
}

// Extrapolate evaluates the fitted line at x.
func Extrapolate(slope, intercept, x float64) float64 {
	return intercept + slope*x
}

// HalvedSlopeExtrapolate is the paper's "less pessimistic" estimate
// (Section 1): beyond the last measured point fromX, the trend continues
// at half its fitted slope.
func HalvedSlopeExtrapolate(slope, intercept, fromX, toX float64) float64 {
	atFrom := Extrapolate(slope, intercept, fromX)
	return atFrom + 0.5*slope*(toX-fromX)
}
