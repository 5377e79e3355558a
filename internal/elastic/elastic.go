// Package elastic is the autoscaling decision policy: a pure,
// deterministic state machine that turns a stream of load observations
// into join/drain/hold verdicts with hysteresis, cooldown, and bounded
// step size.
//
// The policy is deliberately mechanism-free — it never touches the
// engine, the cluster, or the network. The control loop in
// internal/core samples the engine's backpressure signals each poll
// interval, feeds them through Step, and executes whatever the verdict
// says (admit nodes via engine.AddNode, evacuate-and-retire via the
// AQE path and engine.RetireNode). Keeping the policy pure makes its
// safety properties checkable in isolation: the fuzz target feeds it
// arbitrary signal series and asserts it never oscillates faster than
// the cooldown and never steps the node count outside its bounds.
package elastic

import "fmt"

// Signals is one observation of cluster load, sampled once per poll
// interval. All three are dimensionless pressures; the policy collapses
// them to their maximum, so any one saturated resource is enough to
// call the cluster overloaded.
type Signals struct {
	// QueueFrac is the engine's delivered-but-unprocessed ingress
	// backlog as a fraction of aggregate buffer capacity.
	QueueFrac float64
	// StallFrac is the fraction of source-task ticks stalled by
	// backpressure since the previous poll (0..1).
	StallFrac float64
	// NICUtil is the worst standing NIC queue on any live node as a
	// fraction of its bound (netsim.QueuePressure).
	NICUtil float64
}

// Pressure collapses the signals to one overload scalar: the worst of
// the three. Any single saturated resource means the cluster needs
// help; all three idle means capacity can be returned.
func (s Signals) Pressure() float64 {
	p := s.QueueFrac
	if s.StallFrac > p {
		p = s.StallFrac
	}
	if s.NICUtil > p {
		p = s.NICUtil
	}
	return p
}

// Action is a policy verdict.
type Action int

const (
	// Hold: no membership change this poll.
	Hold Action = iota
	// Join: admit Decision.Nodes new nodes.
	Join
	// Drain: gracefully remove one node.
	Drain
)

func (a Action) String() string {
	switch a {
	case Join:
		return "join"
	case Drain:
		return "drain"
	default:
		return "hold"
	}
}

// Decision is the policy's output for one poll. Nodes is meaningful
// only for Join (Drain always removes exactly one node per decision —
// scale-in is deliberately conservative, since a drain ties up an AQE
// evacuation round).
type Decision struct {
	Action Action
	Nodes  int
}

// Config sets the policy's thresholds and rate limits.
type Config struct {
	// MinNodes and MaxNodes bound the live node count. The policy never
	// emits a Join that would exceed MaxNodes or a Drain that would go
	// below MinNodes.
	MinNodes, MaxNodes int

	// HighWater: pressure above this is an overload vote. LowWater:
	// pressure below this is an underload vote. The dead band between
	// them is the hysteresis region where the policy holds.
	HighWater, LowWater float64

	// UpPolls consecutive overload votes are required before a Join;
	// DownPolls consecutive underload votes before a Drain. Scale-in is
	// typically configured much slower than scale-out (flash crowds
	// demand fast response; returning capacity can wait).
	UpPolls, DownPolls int

	// CooldownPolls is the minimum number of polls between two
	// non-Hold decisions, giving each membership change time to take
	// effect (rebalance, drain) before the next is considered.
	CooldownPolls int

	// MaxStep caps the nodes joined by a single decision. The actual
	// step scales with how far pressure exceeds HighWater, so a 10×
	// flash crowd grows the cluster faster than a marginal overload.
	MaxStep int
}

// DefaultConfig returns thresholds sized to the simulator's signal
// dynamics for the given node bounds: netsim queue pressure ramps
// slowly under overload, so the water marks sit low (scale out after 2
// polls above 5%, scale in after 3 polls below 1%) and the cooldown is
// 3 polls. The elastic experiment and sasparctl inspect -autoscale run
// it; internal/core's elastic tests hold the calibration.
func DefaultConfig(minNodes, maxNodes int) Config {
	return Config{
		MinNodes:      minNodes,
		MaxNodes:      maxNodes,
		HighWater:     0.05,
		LowWater:      0.01,
		UpPolls:       2,
		DownPolls:     3,
		CooldownPolls: 3,
		MaxStep:       2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinNodes < 1 {
		return fmt.Errorf("elastic: MinNodes must be at least 1, got %d", c.MinNodes)
	}
	if c.MaxNodes < c.MinNodes {
		return fmt.Errorf("elastic: MaxNodes (%d) must be >= MinNodes (%d)", c.MaxNodes, c.MinNodes)
	}
	if c.HighWater <= c.LowWater {
		return fmt.Errorf("elastic: HighWater (%v) must exceed LowWater (%v)", c.HighWater, c.LowWater)
	}
	if c.LowWater < 0 {
		return fmt.Errorf("elastic: LowWater must be non-negative, got %v", c.LowWater)
	}
	if c.UpPolls < 1 || c.DownPolls < 1 {
		return fmt.Errorf("elastic: UpPolls and DownPolls must be at least 1, got %d/%d", c.UpPolls, c.DownPolls)
	}
	if c.CooldownPolls < 0 {
		return fmt.Errorf("elastic: CooldownPolls must be non-negative, got %d", c.CooldownPolls)
	}
	if c.MaxStep < 1 {
		return fmt.Errorf("elastic: MaxStep must be at least 1, got %d", c.MaxStep)
	}
	return nil
}

// Policy is the autoscaling state machine. Zero value is unusable;
// build with NewPolicy.
type Policy struct {
	cfg  Config
	hot  int // consecutive overload votes
	cold int // consecutive underload votes
	cool int // polls remaining until the next decision is allowed
}

// NewPolicy builds a policy after validating cfg.
func NewPolicy(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{cfg: cfg}, nil
}

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Step consumes one observation and returns the verdict. live is the
// current live node count (the caller's ground truth — the policy does
// not track membership itself, so decisions the caller could not
// execute do not desynchronize it).
//
// Invariants, fuzz-checked in FuzzPolicyStep:
//   - two non-Hold decisions are never fewer than CooldownPolls apart;
//   - live + Nodes never exceeds MaxNodes after a Join, and live-1
//     never falls below MinNodes after a Drain;
//   - a Join's Nodes is within [1, MaxStep].
func (p *Policy) Step(live int, sig Signals) Decision {
	pressure := sig.Pressure()
	switch {
	case pressure > p.cfg.HighWater:
		p.hot++
		p.cold = 0
	case pressure < p.cfg.LowWater:
		p.cold++
		p.hot = 0
	default:
		p.hot, p.cold = 0, 0
	}
	if p.cool > 0 {
		p.cool--
		return Decision{Action: Hold}
	}
	if p.hot >= p.cfg.UpPolls && live < p.cfg.MaxNodes {
		// Step size scales with overload severity: pressure at k times
		// the high-water mark asks for k nodes, capped by MaxStep and
		// the remaining headroom. The cap is applied before the float
		// conversion so unbounded pressure (a saturated signal) cannot
		// overflow the conversion.
		step := p.cfg.MaxStep
		if ratio := pressure / p.cfg.HighWater; ratio < float64(p.cfg.MaxStep) {
			step = int(ratio)
			if step < 1 {
				step = 1
			}
		}
		if step > p.cfg.MaxNodes-live {
			step = p.cfg.MaxNodes - live
		}
		p.hot = 0
		p.cool = p.cfg.CooldownPolls
		return Decision{Action: Join, Nodes: step}
	}
	if p.cold >= p.cfg.DownPolls && live > p.cfg.MinNodes {
		p.cold = 0
		p.cool = p.cfg.CooldownPolls
		return Decision{Action: Drain, Nodes: 1}
	}
	return Decision{Action: Hold}
}
