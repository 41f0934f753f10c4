// Package loadgen generates production-shaped serving load: heterogeneous
// client populations with skewed per-client rates, pluggable arrival
// processes (Poisson, Gamma and Weibull burst trains), and session
// lifecycle churn — create, decide for a lifetime, delete, repeat, plus
// fleet-wide create/delete storms. Everything is driven by one seed:
// the same Spec and seed produce a byte-identical schedule on any
// machine at any GOMAXPROCS, so a churn run is an experiment, not an
// anecdote. Schedules can be recorded to JSONL and replayed
// byte-identically (trace.go), and executed against any serving target —
// a flat server, the router, or an in-process
// oracle (run.go). The serve package's churn suites drive schedules
// through Run and check them against Local; the benchmark (bench/)
// builds its churn workload from the same generator.
//
// The model follows the ServeGen observation that production load is not
// one distribution: each client class holds its own arrival process and
// rate skew, and the population is the union. A tiny spec reproduces the
// paper's steady 25 fps frame streams; a storm spec reproduces the kind
// of churn that exposes map-retention and write-amplification bugs.
package loadgen

import (
	"fmt"

	"qgov/internal/governor"
	"qgov/internal/scenario"
)

// Spec is a complete workload description. The zero values of optional
// fields are production defaults, so a minimal spec is three lines.
type Spec struct {
	// Seed drives every random draw in the schedule. Same seed, same
	// schedule — byte-identical, machine-independent.
	Seed int64 `json:"seed"`
	// HorizonS is the simulated duration of the schedule in seconds.
	HorizonS float64 `json:"horizon_s"`
	// IDPrefix namespaces session ids (default "lg"). Ids are
	// "<prefix>-<class>-<client#>" and are recycled across a client's
	// session generations — deliberately, so churn exercises the
	// recycled-id races.
	IDPrefix string `json:"id_prefix,omitempty"`
	// Clients are the heterogeneous population, one entry per class.
	Clients []ClientClass `json:"clients"`
	// Storms are scheduled mass delete/re-create phases.
	Storms []Storm `json:"storms,omitempty"`
	// MaxEvents caps the schedule length as a safety net; 0 is uncapped.
	MaxEvents int64 `json:"max_events,omitempty"`
	// NoDrain leaves sessions live at the horizon instead of emitting
	// the final delete for each (the default drains, so a completed run
	// leaves a clean server).
	NoDrain bool `json:"no_drain,omitempty"`
}

// ClientClass is one homogeneous sub-population.
type ClientClass struct {
	// Name labels the class in session ids and reports.
	Name string `json:"name"`
	// Count is how many clients of this class exist.
	Count int `json:"count"`
	// Governor names the governor for this class's sessions (default
	// "rtm").
	Governor string `json:"governor,omitempty"`
	// Platform names the scenario platform (empty uses the target
	// server's default).
	Platform string `json:"platform,omitempty"`
	// PeriodS is the session decision period (default 0.04 — 25 fps).
	PeriodS float64 `json:"period_s,omitempty"`
	// Arrival is the decide arrival process for each client.
	Arrival Arrival `json:"arrival"`
	// RateSkew optionally spreads per-client mean rates around
	// Arrival.RateHz; without it every client of the class runs at the
	// same mean rate.
	RateSkew *Skew `json:"rate_skew,omitempty"`
	// LifetimeDecides is the mean session lifetime in decides; after an
	// exponentially drawn number of decides the client deletes its
	// session and creates a fresh one under the same id. 0 means
	// sessions live to the horizon.
	LifetimeDecides float64 `json:"lifetime_decides,omitempty"`
	// StartWindowS staggers session creation uniformly over the first
	// StartWindowS seconds (default 0: every client creates at t=0 — a
	// deliberate thundering herd).
	StartWindowS float64 `json:"start_window_s,omitempty"`
}

// Arrival is a decide interarrival process. RateHz is the mean decides
// per second; Process shapes the variance around that mean.
type Arrival struct {
	// Process is "poisson", "gamma" or "weibull". Gamma and Weibull with
	// Shape < 1 produce burst trains (clumped decides with long gaps);
	// Shape > 1 is more regular than Poisson; Shape == 1 degenerates to
	// Poisson for both.
	Process string `json:"process"`
	// RateHz is the class's mean decide rate per client.
	RateHz float64 `json:"rate_hz"`
	// Shape is the Gamma/Weibull shape parameter (default 1).
	Shape float64 `json:"shape,omitempty"`
}

// Skew spreads per-client mean rates: each client's rate is
// Arrival.RateHz scaled by a draw from the distribution, normalised to
// mean 1 — so the class keeps its aggregate rate but individual clients
// range from near-idle to hot (the heavy-tailed client populations
// ServeGen measures).
type Skew struct {
	// Dist is "pareto" (Param is the tail index alpha, > 1) or
	// "lognormal" (Param is sigma).
	Dist string `json:"dist"`
	// Param parameterises the distribution.
	Param float64 `json:"param"`
}

// Storm is one mass-churn phase: at AtS, Fraction of all clients delete
// their sessions simultaneously and re-create them RestartDelayS later.
type Storm struct {
	AtS           float64 `json:"at_s"`
	Fraction      float64 `json:"fraction"`
	RestartDelayS float64 `json:"restart_delay_s,omitempty"`
}

const defaultIDPrefix = "lg"

// Validate checks the spec and fills nothing in: defaults are applied at
// generation time so a validated spec round-trips through JSON unchanged.
func (s *Spec) Validate() error {
	if !(s.HorizonS > 0) {
		return fmt.Errorf("loadgen: horizon_s %v must be positive", s.HorizonS)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("loadgen: spec needs at least one client class")
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("loadgen: max_events %d must be >= 0", s.MaxEvents)
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Name == "" {
			return fmt.Errorf("loadgen: client class %d needs a name", i)
		}
		if c.Count <= 0 {
			return fmt.Errorf("loadgen: class %s count %d must be positive", c.Name, c.Count)
		}
		if c.Governor != "" {
			if _, err := governor.ByName(c.Governor); err != nil {
				return fmt.Errorf("loadgen: class %s: %w", c.Name, err)
			}
		}
		if c.Platform != "" {
			if _, err := scenario.PlatformByName(c.Platform); err != nil {
				return fmt.Errorf("loadgen: class %s: %w", c.Name, err)
			}
		}
		if c.PeriodS < 0 {
			return fmt.Errorf("loadgen: class %s period_s %v must be >= 0", c.Name, c.PeriodS)
		}
		switch c.Arrival.Process {
		case "poisson":
		case "gamma", "weibull":
			if c.Arrival.Shape < 0 {
				return fmt.Errorf("loadgen: class %s shape %v must be >= 0", c.Name, c.Arrival.Shape)
			}
		default:
			return fmt.Errorf("loadgen: class %s arrival process %q is not poisson, gamma or weibull", c.Name, c.Arrival.Process)
		}
		if !(c.Arrival.RateHz > 0) {
			return fmt.Errorf("loadgen: class %s rate_hz %v must be positive", c.Name, c.Arrival.RateHz)
		}
		if sk := c.RateSkew; sk != nil {
			switch sk.Dist {
			case "pareto":
				if !(sk.Param > 1) {
					return fmt.Errorf("loadgen: class %s pareto alpha %v must be > 1 (finite mean)", c.Name, sk.Param)
				}
			case "lognormal":
				if !(sk.Param > 0) {
					return fmt.Errorf("loadgen: class %s lognormal sigma %v must be positive", c.Name, sk.Param)
				}
			default:
				return fmt.Errorf("loadgen: class %s rate_skew dist %q is not pareto or lognormal", c.Name, sk.Dist)
			}
		}
		if c.LifetimeDecides < 0 {
			return fmt.Errorf("loadgen: class %s lifetime_decides %v must be >= 0", c.Name, c.LifetimeDecides)
		}
		if c.StartWindowS < 0 {
			return fmt.Errorf("loadgen: class %s start_window_s %v must be >= 0", c.Name, c.StartWindowS)
		}
	}
	for i, st := range s.Storms {
		if st.AtS < 0 || st.AtS > s.HorizonS {
			return fmt.Errorf("loadgen: storm %d at_s %v outside [0, %v]", i, st.AtS, s.HorizonS)
		}
		if st.Fraction <= 0 || st.Fraction > 1 {
			return fmt.Errorf("loadgen: storm %d fraction %v outside (0, 1]", i, st.Fraction)
		}
		if st.RestartDelayS < 0 {
			return fmt.Errorf("loadgen: storm %d restart_delay_s %v must be >= 0", i, st.RestartDelayS)
		}
		if i > 0 && st.AtS < s.Storms[i-1].AtS {
			return fmt.Errorf("loadgen: storms must be sorted by at_s (storm %d at %v after %v)", i, st.AtS, s.Storms[i-1].AtS)
		}
	}
	return nil
}
