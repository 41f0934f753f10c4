package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

// oracleTable is the reflection encoder's view of a table: the flat
// row-major layout QTable.MarshalJSON wrote through encoding/json before
// the append encoder replaced it.
func oracleTable(t *QTable) qtableJSON {
	j := qtableJSON{States: t.states, Actions: t.actions}
	for s := 0; s < t.states; s++ {
		j.Q = append(j.Q, t.tab.Row(s)...)
		for _, v := range t.tab.VRow(s) {
			j.Visits = append(j.Visits, int(v))
		}
	}
	return j
}

// oracleState is the reflection encoding of the RTM's checkpoint: the
// rtmCheckpoint envelope through encoding/json's Encoder, tables
// materialised flat. SaveState must reproduce it byte for byte, or every
// registry address (the SHA-256 of these bytes) and stored v1 file moves.
func oracleState(t *testing.T, r *RTM) []byte {
	t.Helper()
	cp := struct {
		Kind       string       `json:"kind"`
		Version    int          `json:"version"`
		Mode       string       `json:"mode"`
		Levels     int          `json:"levels"`
		CCMin      float64      `json:"cc_min"`
		CCMax      float64      `json:"cc_max"`
		Calibrated bool         `json:"calibrated"`
		Epsilon    float64      `json:"epsilon"`
		EpsEpoch   int          `json:"epsilon_epoch"`
		Tables     []qtableJSON `json:"tables"`
	}{
		Kind: "rtm", Version: 1, Mode: r.cfg.Mode.String(), Levels: r.cfg.Levels,
		CCMin: r.space.CCMin, CCMax: r.space.CCMax, Calibrated: r.calibrated,
		Epsilon: r.cfg.Epsilon.Epsilon(), EpsEpoch: r.cfg.Epsilon.Epoch(),
	}
	for _, tab := range r.tables {
		cp.Tables = append(cp.Tables, oracleTable(tab))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rtmFamily is every checkpointing learner of the RTM family.
func rtmFamily() map[string]Config {
	percore := DefaultConfig()
	percore.Mode = PerCoreTables
	sarsa := DefaultConfig()
	sarsa.OnPolicy = true
	upd := DefaultConfig()
	upd.Policy = UniformPolicy{}
	return map[string]Config{"rtm": DefaultConfig(), "rtm-percore": percore, "rtm-sarsa": sarsa, "updrl": upd}
}

// runOnA15 trains a fresh learner for the given epochs of h264-football on
// the paper's a15 cluster, auto-ranging (no Calibrate) so the state-space
// range is an arbitrary float as well.
func runOnA15(cfg Config, epochs int) *RTM {
	gen, err := workload.ByName("h264-football")
	if err != nil {
		panic(err)
	}
	r := New(cfg)
	s := sim.NewSession(sim.Config{Trace: gen(5, epochs), Governor: r, Seed: 5})
	for !s.Done() {
		s.Step(s.Decide())
	}
	return r
}

func TestSaveStateMatchesReflectionOracle(t *testing.T) {
	for name, cfg := range rtmFamily() {
		for _, epochs := range []int{1, 60, 1000} {
			r := runOnA15(cfg, epochs)
			if r.Name() != name {
				t.Fatalf("config %s builds %s", name, r.Name())
			}
			var got bytes.Buffer
			if err := r.SaveState(&got); err != nil {
				t.Fatal(err)
			}
			if want := oracleState(t, r); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s after %d epochs: SaveState differs from the reflection encoder\n got %.300s\nwant %.300s",
					name, epochs, got.Bytes(), want)
			}
			// Through a plain io.Writer (no spare buffer to append into)
			// and through Save/MarshalJSON, the bytes are the same.
			var plain strings.Builder
			if err := r.SaveState(&plain); err != nil || plain.String() != got.String() {
				t.Fatalf("%s: SaveState into a non-Buffer writer differs (err %v)", name, err)
			}
			var saved strings.Builder
			if err := r.Table().Save(&saved); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(oracleTable(r.Table()))
			if err != nil {
				t.Fatal(err)
			}
			if saved.String() != string(want)+"\n" {
				t.Fatalf("%s: QTable.Save differs from the reflection encoder", name)
			}
		}
	}
}

// A poisoned Q-value fails the save, and nothing reaches the writer: a
// half-written checkpoint must never be persisted.
func TestSaveStateRejectsNonFiniteAndWritesNothing(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := runOnA15(DefaultConfig(), 60)
		q, _ := r.tables[0].tab.MutRow(3)
		q[7] = bad
		buf := bytes.NewBufferString("prefix")
		if err := r.SaveState(buf); err == nil {
			t.Errorf("SaveState with Q = %v succeeded", bad)
		}
		if buf.String() != "prefix" {
			t.Errorf("SaveState with Q = %v wrote %d bytes", bad, buf.Len()-len("prefix"))
		}
		var saved bytes.Buffer
		if err := r.Table().Save(&saved); err == nil || saved.Len() != 0 {
			t.Errorf("QTable.Save with Q = %v: err %v, wrote %d bytes", bad, err, saved.Len())
		}
	}
}

// The sweep guardrail: appending a warm session's state into a buffer that
// already has the capacity allocates nothing, so a checkpoint sweep that
// reuses one buffer produces no garbage per session.
func TestSaveStateIntoSizedBufferDoesNotAllocate(t *testing.T) {
	r := runOnA15(DefaultConfig(), 1000)
	var buf bytes.Buffer
	if err := r.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Grow(buf.Len()) // headroom for any float spelled longer later
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := r.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SaveState into a sized buffer allocates %.1f times per call, want 0", allocs)
	}
}

// The exploration count at convergence is latched from a fixed ring; it
// must equal the count an unbounded per-epoch history would have recorded
// at the tracker's convergence epoch, for every epoch of a long run.
func TestExplorationsAtConvergenceMatchesHistory(t *testing.T) {
	gen, err := workload.ByName("h264-football")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range rtmFamily() {
		r := New(cfg)
		s := sim.NewSession(sim.Config{Trace: gen(9, 3000), Governor: r, Seed: 9})
		var hist []int
		checked := 0
		for !s.Done() {
			s.Step(s.Decide())
			if s.Epoch() == 1 {
				continue // the first decide is the Epoch -1 no-op
			}
			hist = append(hist, r.Explorations())
			if c := r.ConvergedAtEpoch(); c >= 0 {
				if got := r.ExplorationsAtConvergence(); got != hist[c] {
					t.Fatalf("%s epoch %d: explorations at convergence %d = %d, history says %d",
						name, len(hist)-1, c, got, hist[c])
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s never converged in 3000 epochs; the latch went unchecked", name)
		}
	}
}

var _ governor.ExplorationCurve = (*RTM)(nil)
