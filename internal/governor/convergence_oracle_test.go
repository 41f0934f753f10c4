package governor

import (
	"bytes"
	"math"
	"testing"

	"qgov/internal/qpage"
	"qgov/internal/xrand"
)

// diffTracker is the whole-policy convergence tracker the learners ran
// before they reported changed slots: every epoch it diffs the complete
// fingerprint against a stored copy. It is the oracle the incremental
// ConvergenceTracker bookkeeping must reproduce exactly. (internal/core
// tests the RTM family against the same algorithm.)
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

// mldtmFingerprint is the whole policy the ML-DTM's tracker follows:
// every row's sticky greedy choice, -1 for rows under MinRowVisits
// updates.
func mldtmFingerprint(g *MLDTM) []int16 {
	fp := make([]int16, len(g.greedy))
	for r, a := range g.greedy {
		fp[r] = int16(a)
		if sumOf(g.tab.VRow(r)) < MinRowVisits {
			fp[r] = -1
		}
	}
	return fp
}

// The ML-DTM's per-row convergence bookkeeping equals the whole-policy
// diff on every epoch of a 6,000-epoch pooled run with an Epoch < 0 call
// and a checkpoint restore midway: Quiet, WindowFlips, ConvergedAt and
// StableFraction.
func TestMLDTMTrackerMatchesWholePolicyOracle(t *testing.T) {
	g := NewMLDTM()
	ctx := testCtx(3)
	ctx.QPool = qpage.NewPool()
	g.Reset(ctx)
	oracle := newDiffTracker(g.StableEpochs, 2)
	rng := xrand.New(17)
	util := make([]float64, ctx.NumCores)
	cycles := make([]uint64, ctx.NumCores)
	idx := g.Decide(Observation{Epoch: -1})
	converged, reopened := 0, 0
	for e := 0; e < 6_000; e++ {
		switch e {
		case 1_234:
			idx = g.Decide(Observation{Epoch: -1})
		case 3_000:
			var buf bytes.Buffer
			if err := g.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			g.ReleaseState()
			if err := g.LoadState(&buf); err != nil {
				t.Fatal(err)
			}
			g.Reset(ctx)
			oracle = newDiffTracker(g.StableEpochs, 2)
		}
		// Per-core demand that wanders, with a level that moves every
		// 300 epochs, so the policy settles and is unsettled again.
		f := ctx.Table[idx].FreqHz()
		level := 200e6 + 150e6*float64((e/300)%4)
		for c := range util {
			util[c] = math.Min(1, (level+400e6*rng.Float64())/f)
			cycles[c] = uint64(util[c] * ctx.PeriodS * f)
		}
		wasConverged := g.ConvergedAtEpoch() >= 0
		idx = g.Decide(Observation{
			Epoch: e, Cycles: cycles, Util: util, ExecTimeS: util[0] * ctx.PeriodS,
			PeriodS: ctx.PeriodS, WallTimeS: ctx.PeriodS, PowerW: 1 + 4*rng.Float64(), TempC: 50, OPPIdx: idx,
		})
		oracle.observe(mldtmFingerprint(g))
		tr := &g.tracker
		if tr.Quiet() != oracle.quiet() || tr.WindowFlips() != oracle.windowSum ||
			tr.ConvergedAt() != oracle.converged || tr.StableFraction() != oracle.stableFraction() {
			t.Fatalf("epoch %d: tracker quiet=%v flips=%d converged=%d stable=%v, oracle quiet=%v flips=%d converged=%d stable=%v",
				e, tr.Quiet(), tr.WindowFlips(), tr.ConvergedAt(), tr.StableFraction(),
				oracle.quiet(), oracle.windowSum, oracle.converged, oracle.stableFraction())
		}
		if tr.ConvergedAt() >= 0 {
			converged++
		} else if wasConverged {
			reopened++
		}
	}
	if converged == 0 || reopened == 0 {
		t.Fatalf("the run never exercised the tracker: %d converged epochs, %d reopenings", converged, reopened)
	}
}
