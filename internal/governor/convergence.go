package governor

// LearningStats is implemented by the learning governors (the proposed RTM,
// the UPD-RL baseline, the ML-DTM baseline) so the experiment harness can
// read the two quantities the paper tabulates:
//
//   - Table II counts *explorations*: decision epochs in which the policy
//     chose an exploratory (non-greedy) action during initial learning;
//   - Table III reports the *learning overhead* in decision epochs: how
//     long until the learnt policy stops changing.
type LearningStats interface {
	// Explorations returns the number of exploratory decisions taken.
	Explorations() int
	// ConvergedAtEpoch returns the epoch index at which initial learning
	// completed (the greedy policy became stable), or -1 while still
	// learning.
	ConvergedAtEpoch() int
}

// ExplorationStats is implemented by learners that can report where they
// stand on the explore→exploit arc while they serve — the online-ops
// counters a fleet operator watches next to decision latency. All three
// quantities are instantaneous reads of serving state, cheap enough for
// a metrics endpoint to poll.
type ExplorationStats interface {
	// Epsilon returns the current exploration probability — the
	// ε schedule's position on its decay curve.
	Epsilon() float64
	// VisitTotal returns the total state–action visits recorded across
	// the learner's value tables (the denominator of its visit-decayed
	// learning rates).
	VisitTotal() int
	// ConvergedFraction returns the fraction of states whose greedy
	// action has been stable for the learner's convergence window —
	// 1.0 means the whole policy has settled.
	ConvergedFraction() float64
}

// ExplorationCurve is implemented by learners that record their cumulative
// exploration count at the convergence epoch, so the harness can report
// explorations *before convergence* — the Table II quantity: exploratory
// decisions spent getting to a stable policy, not the asymptotic tail
// after it.
type ExplorationCurve interface {
	// ExplorationsAtConvergence returns the cumulative exploration count
	// after the epoch ConvergedAtEpoch reports. It is meaningful only
	// while that epoch is non-negative.
	ExplorationsAtConvergence() int
}

// ConvergenceTracker reports when the greedy policy stabilised: the start
// of the current window of StableEpochs consecutive epochs in which the
// policy changed at most MaxFlips table entries in total. On stochastic
// workloads a strict no-change criterion never triggers — occasional
// single-state flips in rarely visited rows persist indefinitely — so a
// small tolerance is part of the definition, not a relaxation of it.
//
// The epoch is NOT latched: if the policy later changes beyond tolerance,
// the tracker reopens and subsequently reports the newer stabilisation.
// This matters for learners whose pre-learning greedy policy is trivially
// constant (an untouched Q-table always returns action 0): the early quiet
// stretch must not masquerade as convergence once real learning starts
// flipping entries.
//
// The policy is a fingerprint of slots, one per table state, and the
// tracker never sees it whole. A learner's update touches one row, so only
// that row's slot can change in an epoch: the learner compares the slot
// before and after its update, reports a change with Flip, and closes the
// epoch with Observe. Each decide's bookkeeping is therefore O(1) in the
// table size, and the tracker keeps no copy of the policy — only the epoch
// each slot last changed. The first epoch after Init or Reset counts every
// slot as a flip, as the first sight of a policy does.
type ConvergenceTracker struct {
	// StableEpochs is the window length.
	StableEpochs int
	// MaxFlips is the number of greedy-action changes tolerated inside
	// the window.
	MaxFlips int

	// lastFlip and flipRing hold epoch numbers and per-epoch flip counts
	// as int32, a third of their []int size, since a serving fleet holds
	// one tracker per live session. The window's epochs sit in flipRing
	// at epoch % StableEpochs.
	lastFlip  []int32 // epoch each slot's greedy action last changed
	flipRing  []int32
	pending   int // flips reported for the epoch in progress
	windowSum int
	converged int
	epoch     int
}

// NewConvergenceTracker returns a tracker over a fingerprint of slots
// entries requiring the given stable run length (values < 1 are raised to
// 1) with a one-flip tolerance.
func NewConvergenceTracker(stableEpochs, slots int) *ConvergenceTracker {
	c := new(ConvergenceTracker)
	c.Init(stableEpochs, slots)
	return c
}

// Init sizes the tracker in place for a fingerprint of slots entries and a
// window of stableEpochs (values < 1 are raised to 1), with a one-flip
// tolerance, and clears it. It reuses the tracker's arrays where they fit,
// so a learner holding the tracker by value re-initialises it on every
// Reset without allocating again.
func (c *ConvergenceTracker) Init(stableEpochs, slots int) {
	if stableEpochs < 1 {
		stableEpochs = 1
	}
	c.StableEpochs = stableEpochs
	c.MaxFlips = 1
	c.lastFlip = resize(c.lastFlip, slots)
	c.flipRing = resize(c.flipRing, stableEpochs)
	c.Reset()
}

// resize returns s with length n, reallocating only when it lacks the
// capacity.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// MinRowVisits is the update count below which a learner masks a table
// row in its convergence fingerprint (the slot reads -1): an under-sampled
// row has not learnt anything yet, so its (still essentially random)
// greedy choice flipping must not count as "the policy is still moving".
// The RTM family and the ML-DTM mask alike, so the Table III comparison
// measures the same notion of stability on both sides; a row entering the
// fingerprint as it crosses the threshold costs one tolerated flip.
const MinRowVisits = 20

// RowUpdated reports the fingerprint change of one masked row's update:
// the update raised the row's visit count to visits and moved its greedy
// choice from before to after. Crossing MinRowVisits always changes the
// slot (from -1 to the greedy choice); past it, only a new greedy choice
// does.
func (c *ConvergenceTracker) RowUpdated(slot, visits, before, after int) {
	if visits == MinRowVisits || visits > MinRowVisits && after != before {
		c.Flip(slot)
	}
}

// Flip reports that the fingerprint's slot changed in the epoch in
// progress. A slot must be reported at most once per epoch: learners
// update one row per table per epoch, so one comparison covers it.
func (c *ConvergenceTracker) Flip(slot int) {
	c.lastFlip[slot] = int32(c.epoch)
	c.pending++
}

// Observe closes the epoch in progress: the flips reported since the last
// Observe enter the window. The first epoch counts every slot (and at
// least one flip) whatever was reported.
func (c *ConvergenceTracker) Observe() {
	flips := c.pending
	if c.epoch == 0 {
		flips = max(len(c.lastFlip), 1)
	}
	c.pending = 0
	i := c.epoch % c.StableEpochs
	c.windowSum += flips - int(c.flipRing[i])
	c.flipRing[i] = int32(flips)
	c.epoch++

	if c.epoch >= c.StableEpochs {
		if c.windowSum <= c.MaxFlips {
			if c.converged < 0 {
				c.converged = c.epoch - c.StableEpochs
			}
		} else {
			c.converged = -1
		}
	}
}

// ConvergedAt returns the start of the current stable window, or -1 while
// the policy is still moving.
func (c *ConvergenceTracker) ConvergedAt() int { return c.converged }

// WindowFlips returns the number of greedy-action changes inside the
// current window.
func (c *ConvergenceTracker) WindowFlips() int { return c.windowSum }

// Quiet reports whether the current window is within the flip tolerance —
// the "learning has stopped moving" signal the ε schedule consumes.
func (c *ConvergenceTracker) Quiet() bool {
	return c.epoch >= c.StableEpochs && c.windowSum <= c.MaxFlips
}

// StableFraction returns the fraction of slots whose greedy action has
// not changed for at least StableEpochs epochs — the per-state view of
// convergence, where ConvergedAt is the all-states one. It is 0 until a
// full window has been observed: no state has had the chance to prove
// itself stable before then. It walks every slot, so it is for metrics
// reads, not the decide path.
func (c *ConvergenceTracker) StableFraction() float64 {
	if c.epoch < c.StableEpochs || len(c.lastFlip) == 0 {
		return 0
	}
	stable := 0
	for _, lf := range c.lastFlip {
		if c.epoch-int(lf) >= c.StableEpochs {
			stable++
		}
	}
	return float64(stable) / float64(len(c.lastFlip))
}

// Reset clears the tracker, keeping its slot count and window: the next
// epoch is a first sight again.
func (c *ConvergenceTracker) Reset() {
	clear(c.lastFlip)
	clear(c.flipRing)
	c.pending = 0
	c.windowSum = 0
	c.converged = -1
	c.epoch = 0
}
