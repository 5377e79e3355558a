package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
)

func replayEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReplayAppliesAndReverts(t *testing.T) {
	e := replayEngine(t)
	reg := obs.New()
	r, err := newReplay(e, scenario.Script{
		{Kind: scenario.KindStraggler, Node: 1, At: vtime.Time(vtime.Second), Duration: 2 * vtime.Second, Factor: 0.25},
		{Kind: scenario.KindBrownout, Node: 2, At: vtime.Time(2 * vtime.Second), Duration: vtime.Second, Factor: 0.5},
		{Kind: scenario.KindCrash, Node: 3, At: vtime.Time(4 * vtime.Second)},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}

	step := func(d vtime.Duration) {
		e.Run(d)
		r.advance(e.Clock())
	}
	step(1500 * vtime.Millisecond) // straggler active
	if got := e.Network().NodeFactor(2); got != 1 {
		t.Fatalf("brownout applied early: NIC factor %v", got)
	}
	step(vtime.Second) // t=2.5s: both transients active
	if r.struck != 2 {
		t.Fatalf("applied %d events by 2.5s, want 2", r.struck)
	}
	if got := e.Network().NodeFactor(2); got != 0.5 {
		t.Fatalf("brownout NIC factor %v, want 0.5", got)
	}
	step(vtime.Second) // t=3.5s: both transients expired
	if got := e.Network().NodeFactor(2); got != 1 {
		t.Fatalf("brownout never reverted: NIC factor %v", got)
	}
	if e.NodeDown(3) {
		t.Fatal("crash applied early")
	}
	step(vtime.Second) // t=4.5s: crash struck
	if !e.NodeDown(3) {
		t.Fatal("crash never applied")
	}
	if r.next != len(r.events) || len(r.reverts) != 0 {
		t.Fatal("replay not done after the last event")
	}

	// Trace carries begin and end phases for the transients, begin only
	// for the crash.
	begins, ends := 0, 0
	for _, ev := range reg.Events() {
		if ev.Kind != obs.EvFaultInjected {
			continue
		}
		for _, kv := range ev.Attrs {
			if kv.K == "phase" && kv.V == "begin" {
				begins++
			}
			if kv.K == "phase" && kv.V == "end" {
				ends++
			}
		}
	}
	if begins != 3 || ends != 2 {
		t.Fatalf("trace phases begin=%d end=%d, want 3/2", begins, ends)
	}
}

func TestReplayRejectsOversizedScript(t *testing.T) {
	e := replayEngine(t)
	if _, err := newReplay(e, scenario.Crash(9, 0), nil); err == nil {
		t.Fatal("out-of-range crash node accepted")
	}
	if _, err := newReplay(e, scenario.Script{{Kind: scenario.KindRate, Stream: 1, Rate: 5}}, nil); err == nil {
		t.Fatal("out-of-range rate stream accepted")
	}
}

// Events at one instant apply in a fixed (time, kind, node/stream)
// order whatever order the script lists them in.
func TestReplayOrderIgnoresListingOrder(t *testing.T) {
	text := []string{
		"1s rate stream=0 rows=9000",
		"1s straggler node=2 for=1s factor=0.5",
		"1s crash node=3",
		"1s brownout node=1 for=1s factor=0.25",
		"1s rate stream=0 rows=3000",
		"1s straggler node=1 for=1s factor=0.4",
		"2s brownout node=2 for=1s factor=0.3",
	}
	run := func(lines []string) string {
		sc, err := scenario.Parse(strings.Join(lines, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		e := replayEngine(t)
		reg := obs.New()
		r, err := newReplay(e, sc, reg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for i := 0; i < 4; i++ {
			e.Run(800 * vtime.Millisecond)
			r.advance(e.Clock())
			fmt.Fprintf(&b, "t=%v accepted=%v\n", e.Clock(), e.SourceAcceptedRate())
		}
		for _, ev := range reg.Events() {
			fmt.Fprintln(&b, ev)
		}
		return b.String()
	}
	want := run(text)
	if !strings.Contains(want, "kind=crash") {
		t.Fatalf("the script never struck:\n%s", want)
	}
	rev := make([]string, len(text))
	for i, l := range text {
		rev[len(text)-1-i] = l
	}
	rot := append(append([]string(nil), text[3:]...), text[:3]...)
	for _, lines := range [][]string{rev, rot} {
		if got := run(lines); got != want {
			t.Fatalf("listing order changed the run:\n%s\nwant\n%s", got, want)
		}
	}
}

// A rate-only script is the same run as setting the rates by hand
// between Run calls, arms no health polling and emits no fault event.
func TestRateOnlyScriptIsSilent(t *testing.T) {
	build := func(sc scenario.Script) *System {
		cfg := fastCfg()
		cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
		cfg.Obs = obs.New()
		cfg.Script = sc
		s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scripted := build(scenario.Script{
		{Kind: scenario.KindRate, Rate: 20000},
		{Kind: scenario.KindRate, At: vtime.Time(3 * vtime.Second), Rate: 5000},
	})
	if scripted.watchHealth {
		t.Fatal("a rate-only script armed health polling")
	}
	if err := scripted.Run(6 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	byHand := build(nil)
	byHand.Engine().SetStreamRate(0, 20000)
	byHand.Run(3 * vtime.Second)
	byHand.Engine().SetStreamRate(0, 5000)
	byHand.Run(3 * vtime.Second)
	if a, b := fingerprint(t, scripted), fingerprint(t, byHand); !bytes.Equal(a, b) {
		t.Fatalf("scripted rates diverged from hand-set rates at %s", diffLine(b, a))
	}
	for _, ev := range scripted.Trace() {
		if strings.HasPrefix(string(ev.Kind), "fault_") {
			t.Fatalf("rate-only script traced %v", ev)
		}
	}
	// Nothing watches the cluster: a node lost by hand goes unnoticed.
	scripted.Engine().SetNodeDown(3, true)
	scripted.Run(2 * vtime.Second)
	if snap := scripted.Snapshot(); snap.FaultsInjected != 0 || snap.FaultsDetected != 0 {
		t.Fatalf("rate-only script counted faults: injected=%d detected=%d", snap.FaultsInjected, snap.FaultsDetected)
	}
}
