package core

import (
	"bytes"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/qpage"
)

// diffTracker is the whole-policy convergence tracker the learners ran
// before they reported changed slots: every epoch it diffs the complete
// fingerprint against a stored copy. It is the oracle the incremental
// governor.ConvergenceTracker bookkeeping must reproduce exactly.
type diffTracker struct {
	stableEpochs, maxFlips int

	prev      []int16
	lastFlip  []int32
	flipRing  []int32
	ringIdx   int
	windowSum int
	seen      int
	converged int
	epoch     int
}

func newDiffTracker(stableEpochs, maxFlips int) *diffTracker {
	return &diffTracker{
		stableEpochs: stableEpochs,
		maxFlips:     maxFlips,
		flipRing:     make([]int32, stableEpochs),
		converged:    -1,
	}
}

func (c *diffTracker) observe(policy []int16) {
	flips := 0
	if c.prev == nil {
		flips = max(len(policy), 1)
		c.lastFlip = make([]int32, len(policy))
		for i := range c.lastFlip {
			c.lastFlip[i] = int32(c.epoch)
		}
	} else {
		for i := range policy {
			if policy[i] != c.prev[i] {
				flips++
				c.lastFlip[i] = int32(c.epoch)
			}
		}
	}
	c.prev = append(c.prev[:0], policy...)

	c.windowSum += flips - int(c.flipRing[c.ringIdx])
	c.flipRing[c.ringIdx] = int32(flips)
	c.ringIdx = (c.ringIdx + 1) % c.stableEpochs
	if c.seen < c.stableEpochs {
		c.seen++
	}
	if c.seen == c.stableEpochs {
		if c.windowSum <= c.maxFlips {
			if c.converged < 0 {
				c.converged = max(c.epoch-c.stableEpochs+1, 0)
			}
		} else {
			c.converged = -1
		}
	}
	c.epoch++
}

func (c *diffTracker) quiet() bool {
	return c.seen == c.stableEpochs && c.windowSum <= c.maxFlips
}

func (c *diffTracker) stableFraction() float64 {
	if c.seen < c.stableEpochs || len(c.lastFlip) == 0 {
		return 0
	}
	stable := 0
	for _, lf := range c.lastFlip {
		if c.epoch-int(lf) >= c.stableEpochs {
			stable++
		}
	}
	return float64(stable) / float64(len(c.lastFlip))
}

// oracleCheck compares a learner's incremental tracker with the oracle
// after one epoch, failing the test on the first disagreement. It
// returns whether the learner reported convergence.
func oracleCheck(t *testing.T, name string, epoch int, got *governor.ConvergenceTracker, want *diffTracker) bool {
	t.Helper()
	if got.Quiet() != want.quiet() || got.WindowFlips() != want.windowSum ||
		got.ConvergedAt() != want.converged || got.StableFraction() != want.stableFraction() {
		t.Fatalf("%s epoch %d: tracker quiet=%v flips=%d converged=%d stable=%v, oracle quiet=%v flips=%d converged=%d stable=%v",
			name, epoch, got.Quiet(), got.WindowFlips(), got.ConvergedAt(), got.StableFraction(),
			want.quiet(), want.windowSum, want.converged, want.stableFraction())
	}
	return got.ConvergedAt() >= 0
}

// rtmFingerprint is the whole policy the RTM's tracker follows: every
// table's sticky greedy choice, -1 for rows under governor.MinRowVisits updates.
func rtmFingerprint(r *RTM) []int16 {
	nStates := r.space.NumStates()
	fp := make([]int16, len(r.greedy))
	for i, a := range r.greedy {
		fp[i] = int16(a)
		if r.tables[i/nStates].RowVisits(i%nStates) < governor.MinRowVisits {
			fp[i] = -1
		}
	}
	return fp
}

// oracleDemand is the per-core cycle demand of epoch e in the oracle
// runs: four plateaus that change every 250 epochs, with a jitter that
// walks over most of the workload levels, so the learners converge, are
// knocked out of it and converge again, hundreds of times a run.
func oracleDemand(e int) uint64 {
	return uint64(12e6 + 1.3e6*float64((e*13)%23) + 5e6*float64((e/250)%4))
}

// oracleEpochs is the length of every oracle run; oracleBreak is the
// epoch at which it sends the governor contract's first call (Epoch < 0)
// again, and oracleRestart the epoch at which it restores a checkpoint
// (or, for a learner without one, resets).
const (
	oracleEpochs  = 6_000
	oracleBreak   = 1_234
	oracleRestart = 3_000
)

// Every RTM-family learner's incremental convergence bookkeeping equals
// the whole-fingerprint diff on every epoch of a closed-loop run with a
// pooled table, an Epoch < 0 call and a checkpoint restore midway:
// Quiet, WindowFlips, ConvergedAt, StableFraction and, while converged,
// ExplorationsAtConvergence.
func TestRTMTrackerMatchesWholePolicyOracle(t *testing.T) {
	for name, cfg := range rtmFamily() {
		t.Run(name, func(t *testing.T) {
			ctx := rtmCtx(3)
			ctx.QPool = qpage.NewPool()
			r := New(cfg)
			r.Reset(ctx)
			oracle := newDiffTracker(cfg.StableEpochs, 2)
			var hist []int // cumulative explorations per epoch since Reset
			idx := r.Decide(governor.Observation{Epoch: -1})
			converged, reopened := 0, 0
			for e := 0; e < oracleEpochs; e++ {
				switch e {
				case oracleBreak:
					idx = r.Decide(governor.Observation{Epoch: -1})
				case oracleRestart:
					var buf bytes.Buffer
					if err := r.SaveState(&buf); err != nil {
						t.Fatal(err)
					}
					r.ReleaseState()
					if err := r.LoadState(&buf); err != nil {
						t.Fatal(err)
					}
					r.Reset(ctx)
					oracle, hist = newDiffTracker(cfg.StableEpochs, 2), nil
				}
				wasConverged := r.ConvergedAtEpoch() >= 0
				idx = r.Decide(closedLoopObs(ctx, e, idx, oracleDemand(e), r.DecisionOverheadS()))
				oracle.observe(rtmFingerprint(r))
				hist = append(hist, r.Explorations())
				if oracleCheck(t, name, e, &r.tracker, oracle) {
					converged++
					c := r.ConvergedAtEpoch()
					if got := r.ExplorationsAtConvergence(); got != hist[c] {
						t.Fatalf("epoch %d: explorations at convergence %d = %d, history says %d", e, c, got, hist[c])
					}
				} else if wasConverged {
					reopened++
				}
			}
			if converged == 0 || reopened == 0 {
				t.Fatalf("the run never exercised the tracker: %d converged epochs, %d reopenings", converged, reopened)
			}
		})
	}
}

// closedLoopObs is the observation of epoch e for a 4-core cluster that
// ran it at OPP idx with every core needing cc cycles.
func closedLoopObs(ctx governor.Context, e, idx int, cc uint64, overheadS float64) governor.Observation {
	exec := float64(cc)/ctx.Table[idx].FreqHz() + overheadS
	wall := max(exec, ctx.PeriodS)
	util := exec / wall
	return governor.Observation{
		Epoch:     e,
		Cycles:    []uint64{cc, cc, cc - 1e6, cc},
		Util:      []float64{util, util, util * 0.9, util},
		ExecTimeS: exec,
		PeriodS:   ctx.PeriodS,
		WallTimeS: wall,
		PowerW:    2,
		TempC:     50,
		OPPIdx:    idx,
	}
}

// MultiRTM's per-row bookkeeping equals the whole-policy diff of its
// BestAction fingerprint on every epoch, across an Epoch < 0 call and a
// Reset midway (it keeps no checkpoint).
func TestMultiRTMTrackerMatchesWholePolicyOracle(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMultiRTM(cfg, 2)
	ctx := rtmCtx(5)
	m.Reset(ctx)
	oracle := newDiffTracker(cfg.StableEpochs, 1)
	idx := m.DecideMulti(MultiObservation{Epoch: -1})
	converged := 0
	for e := 0; e < oracleEpochs; e++ {
		switch e {
		case oracleBreak:
			idx = m.DecideMulti(MultiObservation{Epoch: -1})
		case oracleRestart:
			m.Reset(ctx)
			oracle = newDiffTracker(cfg.StableEpochs, 1)
		}
		f := ctx.Table[idx].FreqHz()
		ovh := m.DecisionOverheadS()
		cyA, cyB := oracleDemand(e), oracleDemand(e+850)/2
		idx = m.DecideMulti(MultiObservation{Epoch: e, Apps: []AppObservation{
			{ExecTimeS: float64(cyA)/f + ovh, PeriodS: 0.040, CriticalCycles: cyA},
			{ExecTimeS: float64(cyB)/f + ovh, PeriodS: 0.033, CriticalCycles: cyB},
		}})
		oracle.observe(m.table.GreedyPolicy())
		if oracleCheck(t, "multirtm", e, &m.tracker, oracle) {
			converged++
		}
	}
	if converged == 0 {
		t.Fatal("the run never converged, so the tracker's window went unchecked")
	}
}
