package qpage

import (
	"encoding/json"
	"math"
	"testing"

	"qgov/internal/xrand"
)

// checkFloat asserts AppendFloat spells f exactly as encoding/json does.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("encoding/json rejected %v: %v", f, err)
	}
	got, err := AppendFloat([]byte("x"), f)
	if err != nil {
		t.Fatalf("AppendFloat(%v): %v", f, err)
	}
	if string(got[1:]) != string(want) || got[0] != 'x' {
		t.Fatalf("AppendFloat(%v) = %q, encoding/json writes %q", f, got[1:], want)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 1e-6, 9.99e20, 1e21, -1e21,
		1 << 53, 1<<53 + 2, float64(1<<53 + 1), -1e300, math.MaxFloat64,
		1e15 - 1, 1e15, 1e15 + 1, -(1e15 - 1), 0.1, -1, -0.5, 123456.789,
		math.SmallestNonzeroFloat64 * 3, 1.5e-9, 2.5e-300, 1e20, 1e22,
	}
	for _, f := range edges {
		checkFloat(t, f)
	}
	r := xrand.New(7)
	for i := 0; i < 100000; i++ {
		// Arbitrary bit patterns cover every exponent; scaled uniform
		// draws cover the Q-value range; truncated draws cover the
		// integral fast path on both sides of its 1e15 cut-off.
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			checkFloat(t, f)
		}
		u := r.Float64()
		checkFloat(t, (u-0.5)*10)
		checkFloat(t, math.Trunc((u-0.5)*4e15))
		checkFloat(t, u*math.Pow(10, float64(r.Intn(60)-30)))
	}
}

func TestAppendFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := AppendFloat([]byte("x"), f)
		if err == nil {
			t.Errorf("AppendFloat(%v) accepted", f)
		}
		if string(got) != "x" {
			t.Errorf("AppendFloat(%v) left %q, want the input unchanged", f, got)
		}
	}
	tab := New(2, 3, 0)
	q, _ := tab.MutRow(1)
	q[2] = math.NaN()
	if got, err := tab.AppendQ([]byte("[")); err == nil || string(got) != "[" {
		t.Errorf("AppendQ over a NaN = %q, %v; want an error and the input unchanged", got, err)
	}
}
