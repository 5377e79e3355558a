// Package scenario is the schedule of a virtual run: a Script is a list
// of typed events in virtual time — node crashes, NIC brownouts, CPU
// stragglers and stream rate changes — written by hand, read from its
// line-oriented text form, or generated from (seed, config). The script
// is inert data; internal/core replays it against the engine as the
// clock advances, so a fixed script yields an identical run every time.
//
// The paper treats fault tolerance as a special case of live
// reconfiguration (Section VI cites Madsen et al.): a failed node is
// just another input the optimizer must adapt to, like a load swing.
// That is why faults and rate phases share one schedule here.
//
// The text form has one event per line: a time in Go duration syntax,
// the event kind, and the kind's key=value pairs. '#' starts a comment.
//
//	6.7345s crash node=2
//	8s brownout node=1 for=2s factor=0.5
//	9s straggler node=3 for=1.5s factor=0.25
//	12s rate stream=0 rows=200
//
// Durations print with time.Duration.String and floats in shortest
// round-trip form, so Parse reads String's output back exactly.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"saspar/internal/cluster"
	"saspar/internal/vtime"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindCrash is a fail-stop node loss: slots stop consuming, sources
	// stop producing, queued and newly routed bytes are lost. Crashes
	// are permanent — recovery means evacuation, not restart.
	KindCrash Kind = iota
	// KindBrownout derates a node's NIC to Factor of nominal bandwidth
	// for Duration, then restores it.
	KindBrownout
	// KindStraggler derates a node's CPU to Factor of nominal compute
	// for Duration, then restores it.
	KindStraggler
	// KindRate sets a stream's offered rate to Rate rows per virtual
	// second from At on.
	KindRate
)

var kindNames = [...]string{"crash", "brownout", "straggler", "rate"}

// keys lists the key=value pairs each kind's line carries, in the order
// String writes them.
var keys = [...][]string{
	KindCrash:     {"node"},
	KindBrownout:  {"node", "for", "factor"},
	KindStraggler: {"node", "for", "factor"},
	KindRate:      {"stream", "rows"},
}

// String names the kind as the text form and the trace spell it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scripted event. Fields a kind does not use stay zero.
type Event struct {
	// At is the virtual time the event strikes.
	At   vtime.Time
	Kind Kind
	// Node is the target of a crash, brownout or straggler.
	Node cluster.NodeID
	// Duration bounds transient faults (brownout, straggler); after
	// At+Duration the node is restored.
	Duration vtime.Duration
	// Factor is the derating of a transient fault (fraction of nominal
	// capacity left).
	Factor float64
	// Stream and Rate are a rate event's target and its offered rate in
	// rows per virtual second.
	Stream int
	Rate   float64
}

// Script is a schedule of events. The replay applies them in Sorted
// order, whatever order the script lists them in.
type Script []Event

// Crash builds the simplest script: node n fails at time at.
func Crash(n cluster.NodeID, at vtime.Time) Script {
	return Script{{Kind: KindCrash, Node: n, At: at}}
}

// HasFaults reports whether the script holds an event that strikes a
// node (anything but a rate change).
func (s Script) HasFaults() bool {
	return slices.ContainsFunc(s, func(ev Event) bool { return ev.Kind != KindRate })
}

// check validates what an event says on its own, independent of the
// cluster it will run against.
func (ev Event) check() error {
	if ev.At < 0 {
		return fmt.Errorf("negative time %v", ev.At)
	}
	switch ev.Kind {
	case KindCrash:
	case KindBrownout, KindStraggler:
		if !(ev.Factor >= 0 && ev.Factor < 1) {
			return fmt.Errorf("factor %v outside [0,1)", ev.Factor)
		}
		if ev.Duration <= 0 {
			return fmt.Errorf("%v has no duration", ev.Kind)
		}
		if ev.At > math.MaxInt64-vtime.Time(ev.Duration) {
			return fmt.Errorf("%v at %v for %v ends past the last representable time", ev.Kind, ev.At, ev.Duration)
		}
	case KindRate:
		if !(ev.Rate >= 0) || math.IsInf(ev.Rate, 1) {
			return fmt.Errorf("rate %v is not a finite non-negative number", ev.Rate)
		}
		if ev.Stream < 0 {
			return fmt.Errorf("negative stream %d", ev.Stream)
		}
		return nil
	default:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	}
	if ev.Node < 0 {
		return fmt.Errorf("negative node %d", ev.Node)
	}
	return nil
}

// Validate checks the script against a cluster of the given size and a
// workload of the given stream count.
func (s Script) Validate(nodes, streams int) error {
	crashed := map[cluster.NodeID]bool{}
	for i, ev := range s {
		if err := ev.check(); err != nil {
			return fmt.Errorf("scenario: event %d: %w", i, err)
		}
		if ev.Kind == KindRate {
			if ev.Stream >= streams {
				return fmt.Errorf("scenario: event %d targets stream %d of %d", i, ev.Stream, streams)
			}
			continue
		}
		if int(ev.Node) >= nodes {
			return fmt.Errorf("scenario: event %d targets node %d of %d", i, ev.Node, nodes)
		}
		if ev.Kind == KindCrash {
			if crashed[ev.Node] {
				return fmt.Errorf("scenario: event %d crashes node %d twice", i, ev.Node)
			}
			crashed[ev.Node] = true
		}
	}
	if len(crashed) > 0 && len(crashed) >= nodes {
		return fmt.Errorf("scenario: script crashes all %d nodes", nodes)
	}
	return nil
}

// Sorted returns the events in replay order: by time, then kind, then
// target, then the remaining fields, so events at one instant apply in
// an order that depends on what they are and never on how they were
// listed.
func (s Script) Sorted() Script {
	out := slices.Clone(s)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.At != b.At:
			return a.At < b.At
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Node != b.Node:
			return a.Node < b.Node
		case a.Stream != b.Stream:
			return a.Stream < b.Stream
		case a.Duration != b.Duration:
			return a.Duration < b.Duration
		case a.Factor != b.Factor:
			return a.Factor < b.Factor
		}
		return a.Rate < b.Rate
	})
	return out
}

// String renders the script in its text form, one event per line in
// script order.
func (s Script) String() string {
	var b strings.Builder
	for _, ev := range s {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one event as a line of the text form.
func (ev Event) String() string {
	head := time.Duration(ev.At).String() + " " + ev.Kind.String()
	switch ev.Kind {
	case KindCrash:
		return fmt.Sprintf("%s node=%d", head, ev.Node)
	case KindBrownout, KindStraggler:
		return fmt.Sprintf("%s node=%d for=%v factor=%s", head, ev.Node, ev.Duration, ftoa(ev.Factor))
	case KindRate:
		return fmt.Sprintf("%s stream=%d rows=%s", head, ev.Stream, ftoa(ev.Rate))
	}
	return head
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Parse reads a script in the text form. Events keep their line order;
// every value is checked as Validate checks it, except the node and
// stream bounds, which depend on the system the script runs against.
func Parse(text string) (Script, error) {
	var s Script
	for i, line := range strings.Split(text, "\n") {
		if c := strings.IndexByte(line, '#'); c >= 0 {
			line = line[:c]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		ev, err := parseEvent(f)
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", i+1, err)
		}
		s = append(s, ev)
	}
	return s, nil
}

func parseEvent(f []string) (Event, error) {
	var ev Event
	if len(f) < 2 {
		return ev, fmt.Errorf("want a time and an event kind, got %q", f[0])
	}
	at, err := time.ParseDuration(f[0])
	if err != nil {
		return ev, err
	}
	ev.At = vtime.Time(at)
	k := slices.Index(kindNames[:], f[1])
	if k < 0 {
		return ev, fmt.Errorf("unknown event kind %q", f[1])
	}
	ev.Kind = Kind(k)
	vals := map[string]string{}
	for _, kv := range f[2:] {
		key, v, ok := strings.Cut(kv, "=")
		if !ok {
			return ev, fmt.Errorf("%q is not key=value", kv)
		}
		if !slices.Contains(keys[k], key) {
			return ev, fmt.Errorf("%v takes no key %q", ev.Kind, key)
		}
		if _, dup := vals[key]; dup {
			return ev, fmt.Errorf("key %q given twice", key)
		}
		vals[key] = v
	}
	for _, key := range keys[k] {
		v, ok := vals[key]
		if !ok {
			return ev, fmt.Errorf("%v needs %s=", ev.Kind, key)
		}
		var n int64
		switch key {
		case "node":
			n, err = strconv.ParseInt(v, 10, 32)
			ev.Node = cluster.NodeID(n)
		case "stream":
			n, err = strconv.ParseInt(v, 10, 32)
			ev.Stream = int(n)
		case "for":
			ev.Duration, err = time.ParseDuration(v)
		case "factor":
			ev.Factor, err = strconv.ParseFloat(v, 64)
		case "rows":
			ev.Rate, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return ev, fmt.Errorf("%s: %w", key, err)
		}
	}
	return ev, ev.check()
}

// Config parameterizes Generate.
type Config struct {
	Nodes int   // cluster size the script targets
	Seed  int64 // script RNG seed; same seed, same script

	Crashes    int // fail-stop node losses (distinct nodes, never node 0)
	Brownouts  int // transient NIC deratings
	Stragglers int // transient CPU deratings

	// Faults strike uniformly in [Start, Start+Span).
	Start vtime.Duration
	Span  vtime.Duration

	// Transient faults last uniformly in [MinDuration, MaxDuration] and
	// derate to a factor uniform in [MinFactor, MaxFactor].
	MinDuration, MaxDuration vtime.Duration
	MinFactor, MaxFactor     float64
}

// Generate builds a random-but-reproducible fault script: the script is
// a pure function of Config (including Seed). Crashes pick distinct
// nodes and spare node 0, so at least one node always hosts sources
// and a live slot to evacuate to.
func Generate(cfg Config) (Script, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 nodes, have %d", cfg.Nodes)
	}
	if cfg.Crashes >= cfg.Nodes {
		return nil, fmt.Errorf("scenario: %d crashes would sink a %d-node cluster", cfg.Crashes, cfg.Nodes)
	}
	if cfg.Span <= 0 {
		return nil, fmt.Errorf("scenario: non-positive span")
	}
	if cfg.Crashes+cfg.Brownouts+cfg.Stragglers == 0 {
		return nil, nil
	}
	if cfg.MinDuration <= 0 {
		cfg.MinDuration = vtime.Second
	}
	if cfg.MaxDuration < cfg.MinDuration {
		cfg.MaxDuration = cfg.MinDuration
	}
	if cfg.MaxFactor <= 0 {
		cfg.MinFactor, cfg.MaxFactor = 0.25, 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	at := func() vtime.Time {
		return vtime.Time(cfg.Start) + vtime.Time(rng.Int63n(int64(cfg.Span)))
	}
	dur := func() vtime.Duration {
		if cfg.MaxDuration == cfg.MinDuration {
			return cfg.MinDuration
		}
		return cfg.MinDuration + vtime.Duration(rng.Int63n(int64(cfg.MaxDuration-cfg.MinDuration)))
	}
	factor := func() float64 {
		return cfg.MinFactor + rng.Float64()*(cfg.MaxFactor-cfg.MinFactor)
	}
	var s Script
	// Crashed nodes: a shuffled draw from nodes 1..Nodes-1.
	perm := rng.Perm(cfg.Nodes - 1)
	for i := 0; i < cfg.Crashes; i++ {
		s = append(s, Event{Kind: KindCrash, Node: cluster.NodeID(perm[i] + 1), At: at()})
	}
	for i := 0; i < cfg.Brownouts; i++ {
		s = append(s, Event{
			Kind: KindBrownout, Node: cluster.NodeID(rng.Intn(cfg.Nodes)),
			At: at(), Duration: dur(), Factor: factor(),
		})
	}
	for i := 0; i < cfg.Stragglers; i++ {
		s = append(s, Event{
			Kind: KindStraggler, Node: cluster.NodeID(rng.Intn(cfg.Nodes)),
			At: at(), Duration: dur(), Factor: factor(),
		})
	}
	s = s.Sorted()
	if err := s.Validate(cfg.Nodes, 0); err != nil {
		return nil, err
	}
	return s, nil
}
