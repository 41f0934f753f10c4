package governor

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"qgov/internal/xrand"
)

// oracleMLDTMState is the reflection encoding of the ML-DTM checkpoint:
// mldtmCheckpoint through encoding/json's Encoder with the table
// materialised flat, what SaveState wrote before the append encoder. The
// append encoder must reproduce it byte for byte.
func oracleMLDTMState(t *testing.T, g *MLDTM) []byte {
	t.Helper()
	cp := mldtmCheckpoint{
		Kind: "mldtm", Version: 1, Cores: g.ctx.NumCores, Bands: g.UtilBands,
		Actions: g.ctx.Table.Len(), Epoch: g.epoch,
	}
	for r := 0; r < g.tab.Rows(); r++ {
		cp.Q = append(cp.Q, g.tab.Row(r)...)
		for _, v := range g.tab.VRow(r) {
			cp.Visits = append(cp.Visits, int(v))
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainMLDTM drives a fresh controller on the a15 table for the given
// epochs with a demand that wanders per core, so every core's rows learn
// distinct values.
func trainMLDTM(epochs int) *MLDTM {
	g := NewMLDTM()
	ctx := testCtx(3)
	g.Reset(ctx)
	rng := xrand.New(11)
	idx := g.Decide(Observation{Epoch: -1})
	util := make([]float64, ctx.NumCores)
	cycles := make([]uint64, ctx.NumCores)
	for i := 1; i < epochs; i++ {
		f := ctx.Table[idx].FreqHz()
		for c := range util {
			util[c] = math.Min(1, (300e6+700e6*rng.Float64())/f)
			cycles[c] = uint64(util[c] * ctx.PeriodS * f)
		}
		idx = g.Decide(Observation{
			Epoch: i - 1, Cycles: cycles, Util: util, ExecTimeS: util[0] * ctx.PeriodS,
			PeriodS: ctx.PeriodS, WallTimeS: ctx.PeriodS, PowerW: 1 + 4*rng.Float64(), TempC: 50, OPPIdx: idx,
		})
	}
	return g
}

func TestMLDTMSaveStateMatchesReflectionOracle(t *testing.T) {
	for _, epochs := range []int{1, 60, 1000} {
		g := trainMLDTM(epochs)
		var got bytes.Buffer
		if err := g.SaveState(&got); err != nil {
			t.Fatal(err)
		}
		if want := oracleMLDTMState(t, g); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("after %d epochs: SaveState differs from the reflection encoder\n got %.300s\nwant %.300s",
				epochs, got.Bytes(), want)
		}
		var plain strings.Builder
		if err := g.SaveState(&plain); err != nil || plain.String() != got.String() {
			t.Fatalf("after %d epochs: SaveState into a non-Buffer writer differs (err %v)", epochs, err)
		}
	}
}

func TestMLDTMSaveStateRejectsNonFiniteAndWritesNothing(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := trainMLDTM(60)
		q, _ := g.tab.MutRow(2)
		q[5] = bad
		buf := bytes.NewBufferString("prefix")
		if err := g.SaveState(buf); err == nil {
			t.Errorf("SaveState with Q = %v succeeded", bad)
		}
		if buf.String() != "prefix" {
			t.Errorf("SaveState with Q = %v wrote %d bytes", bad, buf.Len()-len("prefix"))
		}
	}
}

func TestMLDTMSaveStateIntoSizedBufferDoesNotAllocate(t *testing.T) {
	g := trainMLDTM(1000)
	var buf bytes.Buffer
	if err := g.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Grow(buf.Len())
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := g.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SaveState into a sized buffer allocates %.1f times per call, want 0", allocs)
	}
}

// A trained controller decides without allocating: the greedy-policy
// fingerprint fed to the convergence tracker reuses one scratch slice.
func TestMLDTMDecideDoesNotAllocate(t *testing.T) {
	g := trainMLDTM(1000)
	p := g.ctx.PeriodS
	obs := Observation{
		Epoch: 1000, Util: []float64{0.6, 0.7, 0.5, 0.8}, ExecTimeS: 0.6 * p,
		PeriodS: p, WallTimeS: p, PowerW: 2, TempC: 50,
	}
	allocs := testing.AllocsPerRun(100, func() {
		obs.OPPIdx = g.Decide(obs)
		obs.Epoch++
	})
	if allocs != 0 {
		t.Fatalf("MLDTM.Decide allocates %.1f times per call, want 0", allocs)
	}
}
