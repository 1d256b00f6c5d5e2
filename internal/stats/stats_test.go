package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanIPC(t *testing.T) {
	// Two benchmarks: 100 insts/200 cycles and 300 insts/100 cycles.
	// Paper method: (100+300)/(200+100) = 4/3, NOT mean(0.5, 3.0).
	got := MeanIPC([]uint64{200, 100}, []uint64{100, 300})
	if !approx(got, 4.0/3.0, 1e-12) {
		t.Errorf("MeanIPC = %v, want 4/3", got)
	}
	if MeanIPC(nil, nil) != 0 {
		t.Error("empty input must give 0")
	}
	if MeanIPC([]uint64{1}, []uint64{1, 2}) != 0 {
		t.Error("mismatched lengths must give 0")
	}
}

func TestLinRegExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, err := LinReg(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(slope, 2, 1e-12) || !approx(intercept, 1, 1e-12) {
		t.Errorf("fit = (%v, %v), want (2, 1)", slope, intercept)
	}
	if !approx(Extrapolate(slope, intercept, 10), 21, 1e-12) {
		t.Error("extrapolation wrong")
	}
}

func TestLinRegErrors(t *testing.T) {
	if _, _, err := LinReg([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must error")
	}
	if _, _, err := LinReg([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x must error")
	}
	if _, _, err := LinReg([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestHalvedSlopeExtrapolate(t *testing.T) {
	// Line y = -0.2x + 1.2: at x=1.27 y=0.946; halved slope to x=2.03:
	// 0.946 + 0.5*(-0.2)*(0.76) = 0.870.
	got := HalvedSlopeExtrapolate(-0.2, 1.2, 1.27, 2.03)
	if !approx(got, 0.87, 1e-9) {
		t.Errorf("halved extrapolation = %v, want 0.870", got)
	}
	// With zero slope the estimate is flat.
	if !approx(HalvedSlopeExtrapolate(0, 0.8, 1, 2), 0.8, 1e-12) {
		t.Error("flat line must extrapolate flat")
	}
}

// Property: the regression line always passes through the centroid, and
// residuals sum to ~zero.
func TestLinRegCentroidProperty(t *testing.T) {
	f := func(seed uint8) bool {
		xs := make([]float64, 6)
		ys := make([]float64, 6)
		v := float64(seed) + 1
		for i := range xs {
			xs[i] = float64(i) + v/300
			ys[i] = 3*xs[i] - 1 + math.Sin(v+float64(i))
		}
		slope, intercept, err := LinReg(xs, ys)
		if err != nil {
			return false
		}
		return approx(Extrapolate(slope, intercept, Mean(xs)), Mean(ys), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MeanIPC is bounded by the min and max per-benchmark IPC.
func TestMeanIPCBounds(t *testing.T) {
	f := func(a, b, c uint16) bool {
		cycles := []uint64{uint64(a)%1000 + 1, uint64(b)%1000 + 1}
		insts := []uint64{uint64(c)%1000 + 1, uint64(a)%700 + 1}
		m := MeanIPC(cycles, insts)
		lo := math.Min(float64(insts[0])/float64(cycles[0]), float64(insts[1])/float64(cycles[1]))
		hi := math.Max(float64(insts[0])/float64(cycles[0]), float64(insts[1])/float64(cycles[1]))
		return m >= lo-1e-12 && m <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
