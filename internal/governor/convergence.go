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
type ConvergenceTracker struct {
	// StableEpochs is the window length.
	StableEpochs int
	// MaxFlips is the number of greedy-action changes tolerated inside
	// the window.
	MaxFlips int

	// prev holds action indices (a DVFS ladder has ≤ a few dozen points,
	// so policies arrive as []int16) and lastFlip/flipRing hold epoch
	// numbers and per-epoch flip counts; the narrow element types keep the
	// tracker's three per-session arrays at ~a third of their []int size,
	// which matters when a serving fleet holds one tracker per live
	// session.
	prev      []int16
	lastFlip  []int32 // epoch each state's greedy action last changed
	flipRing  []int32
	ringIdx   int
	windowSum int
	seen      int
	converged int
	epoch     int
}

// NewConvergenceTracker returns a tracker requiring the given stable run
// length (values < 1 are raised to 1) with a one-flip tolerance.
func NewConvergenceTracker(stableEpochs int) *ConvergenceTracker {
	if stableEpochs < 1 {
		stableEpochs = 1
	}
	return &ConvergenceTracker{
		StableEpochs: stableEpochs,
		MaxFlips:     1,
		flipRing:     make([]int32, stableEpochs),
		converged:    -1,
	}
}

// Observe records the greedy policy (one chosen action per state) for the
// current epoch (-1 marks a state the learner masks as not yet sampled).
// A policy of different length counts as fully changed.
func (c *ConvergenceTracker) Observe(policy []int16) {
	flips := 0
	if c.prev == nil || len(policy) != len(c.prev) {
		flips = len(policy)
		if flips == 0 {
			flips = 1
		}
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
	if cap(c.prev) < len(policy) {
		c.prev = make([]int16, len(policy))
	} else {
		c.prev = c.prev[:len(policy)]
	}
	copy(c.prev, policy)

	c.windowSum += flips - int(c.flipRing[c.ringIdx])
	c.flipRing[c.ringIdx] = int32(flips)
	c.ringIdx = (c.ringIdx + 1) % c.StableEpochs
	if c.seen < c.StableEpochs {
		c.seen++
	}

	if c.seen == c.StableEpochs {
		if c.windowSum <= c.MaxFlips {
			if c.converged < 0 {
				c.converged = c.epoch - c.StableEpochs + 1
				if c.converged < 0 {
					c.converged = 0
				}
			}
		} else {
			c.converged = -1
		}
	}
	c.epoch++
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
	return c.seen == c.StableEpochs && c.windowSum <= c.MaxFlips
}

// StableFraction returns the fraction of states whose greedy action has
// not changed for at least StableEpochs epochs — the per-state view of
// convergence, where ConvergedAt is the all-states one. It is 0 until a
// full window has been observed: no state has had the chance to prove
// itself stable before then.
func (c *ConvergenceTracker) StableFraction() float64 {
	if c.seen < c.StableEpochs || len(c.lastFlip) == 0 {
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

// Reset clears the tracker.
func (c *ConvergenceTracker) Reset() {
	c.prev = nil
	c.lastFlip = nil
	for i := range c.flipRing {
		c.flipRing[i] = 0
	}
	c.ringIdx = 0
	c.windowSum = 0
	c.seen = 0
	c.converged = -1
	c.epoch = 0
}
