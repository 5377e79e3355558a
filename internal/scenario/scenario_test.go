package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"saspar/internal/cluster"
	"saspar/internal/vtime"
)

// generateConfigs are the Generate configurations this repository's
// tests and harnesses use.
var generateConfigs = map[string]Config{
	"mixed": {
		Nodes: 8, Seed: 42,
		Crashes: 2, Brownouts: 3, Stragglers: 3,
		Start: 5 * vtime.Second, Span: 20 * vtime.Second,
		MinDuration: vtime.Second, MaxDuration: 4 * vtime.Second,
		MinFactor: 0.2, MaxFactor: 0.6,
	},
	"fault-trace": {
		Nodes: 4, Seed: 7,
		Crashes: 1, Brownouts: 1, Stragglers: 1,
		Start: 2 * vtime.Second, Span: 4 * vtime.Second,
		MinDuration: vtime.Second, MaxDuration: 2 * vtime.Second,
		MinFactor: 0.2, MaxFactor: 0.4,
	},
	"faults":        {Nodes: 4, Seed: 7, Crashes: 1, Start: 6 * vtime.Second, Span: 2 * vtime.Second},
	"elastic-crash": {Nodes: 4, Seed: 7, Crashes: 1, Start: 4 * vtime.Second, Span: 2 * vtime.Second},
	"bench-seed-1":  {Nodes: 4, Seed: 1, Crashes: 1, Start: 20 * vtime.Second, Span: 2 * vtime.Second},
	"bench-seed-2":  {Nodes: 4, Seed: 2, Crashes: 1, Start: 20 * vtime.Second, Span: 2 * vtime.Second},
	"bench-seed-3":  {Nodes: 4, Seed: 3, Crashes: 1, Start: 20 * vtime.Second, Span: 2 * vtime.Second},
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := generateConfigs["mixed"]
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scripts:\n%v\n%v", a, b)
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scripts")
	}
	// Crashes target distinct nodes and spare node 0.
	crashed := map[cluster.NodeID]bool{}
	for _, ev := range a {
		if ev.Kind != KindCrash {
			continue
		}
		if ev.Node == 0 {
			t.Fatal("generated script crashes node 0")
		}
		if crashed[ev.Node] {
			t.Fatalf("node %d crashed twice", ev.Node)
		}
		crashed[ev.Node] = true
	}
	if len(crashed) != cfg.Crashes {
		t.Fatalf("generated %d crashes, want %d", len(crashed), cfg.Crashes)
	}
}

// The committed golden scripts are Generate's output: a change to its
// draws would move them, and with them the golden digests.
func TestGenerateMatchesCommittedScripts(t *testing.T) {
	for name, want := range map[string]string{
		"faults":        "6.955557379s crash node=3\n",
		"elastic-crash": "4.955557379s crash node=3\n",
	} {
		s, err := Generate(generateConfigs[name])
		if err != nil {
			t.Fatal(err)
		}
		if got := s.String(); got != want {
			t.Errorf("%s: Generate wrote %q, the committed script says %q", name, got, want)
		}
	}
}

func TestGenerateRejectsSinkingScenarios(t *testing.T) {
	if _, err := Generate(Config{Nodes: 4, Crashes: 4, Span: vtime.Second}); err == nil {
		t.Fatal("crash count == node count accepted")
	}
	if _, err := Generate(Config{Nodes: 1, Span: vtime.Second}); err == nil {
		t.Fatal("single-node cluster accepted")
	}
	if _, err := Generate(Config{Nodes: 4, Crashes: 1}); err == nil {
		t.Fatal("zero span accepted")
	}
}

func TestScriptValidate(t *testing.T) {
	bad := []Script{
		{{Kind: KindCrash, Node: 9}},
		{{Kind: KindCrash, Node: 1}, {Kind: KindCrash, Node: 1}},
		{{Kind: KindBrownout, Node: 1, Factor: 1.5, Duration: vtime.Second}},
		{{Kind: KindStraggler, Node: 1, Factor: 0.5}},
		{{Kind: KindCrash, Node: 0}, {Kind: KindCrash, Node: 1}},
		{{Kind: KindRate, Stream: 1, Rate: 10}},
		{{Kind: KindRate, Stream: 0, Rate: -1}},
		{{Kind: KindCrash, Node: 1, At: -1}},
		{{Kind: Kind(9), Node: 1}},
	}
	for i, sc := range bad {
		if err := sc.Validate(2, 1); err == nil {
			t.Errorf("bad script %d accepted", i)
		}
	}
	ok := append(Crash(1, 3*vtime.Time(vtime.Second)), Event{Kind: KindRate, At: vtime.Time(vtime.Second), Rate: 0})
	if err := ok.Validate(4, 1); err != nil {
		t.Errorf("good script rejected: %v", err)
	}
	if ok.HasFaults() != true || (Script{{Kind: KindRate}}).HasFaults() {
		t.Error("HasFaults misclassifies")
	}
}

func TestParseReadsEveryKind(t *testing.T) {
	s, err := Parse(`
# a comment line
6.7345s crash node=2
8s brownout node=1 for=2s factor=0.5   # trailing comment
	9s  straggler factor=0.25 node=3 for=1.5s
12s rate stream=0 rows=200
1m0.5s rate rows=1e+06 stream=1
`)
	if err != nil {
		t.Fatal(err)
	}
	want := Script{
		{At: vtime.Time(6734500 * vtime.Microsecond), Kind: KindCrash, Node: 2},
		{At: vtime.Time(8 * vtime.Second), Kind: KindBrownout, Node: 1, Duration: 2 * vtime.Second, Factor: 0.5},
		{At: vtime.Time(9 * vtime.Second), Kind: KindStraggler, Node: 3, Duration: 1500 * vtime.Millisecond, Factor: 0.25},
		{At: vtime.Time(12 * vtime.Second), Kind: KindRate, Stream: 0, Rate: 200},
		{At: vtime.Time(60500 * vtime.Millisecond), Kind: KindRate, Stream: 1, Rate: 1e6},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed\n%v\nwant\n%v", s, want)
	}
	if got := s[1].String(); got != "8s brownout node=1 for=2s factor=0.5" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseRejects(t *testing.T) {
	for _, c := range []struct{ why, line string }{
		{"NaN factor", "1s brownout node=1 for=1s factor=NaN"},
		{"+Inf rate", "1s rate stream=0 rows=+Inf"},
		{"-Inf rate", "1s rate stream=0 rows=-Inf"},
		{"NaN rate", "1s rate stream=0 rows=nan"},
		{"overflowing rate", "1s rate stream=0 rows=1e400"},
		{"negative rate", "1s rate stream=0 rows=-1"},
		{"factor of one", "1s straggler node=1 for=1s factor=1"},
		{"negative factor", "1s brownout node=1 for=1s factor=-0.1"},
		{"unknown kind", "1s meltdown node=1"},
		{"unknown key", "1s crash node=1 zone=2"},
		{"key of another kind", "1s crash node=1 factor=0.5"},
		{"duplicate key", "1s crash node=1 node=2"},
		{"missing key", "1s brownout node=1 factor=0.5"},
		{"not key=value", "1s crash node"},
		{"no kind", "1s"},
		{"overflowing time", "9999999999h crash node=1"},
		{"overflowing duration", "1s brownout node=1 for=9999999999h factor=0.5"},
		{"revert past the end of time", "2562047h brownout node=1 for=1h factor=0.5"},
		{"negative time", "-1s crash node=1"},
		{"zero duration", "1s straggler node=1 for=0s factor=0.5"},
		{"negative node", "1s crash node=-1"},
		{"node past int32", "1s crash node=4294967296"},
		{"negative stream", "1s rate stream=-1 rows=5"},
		{"malformed time", "soon crash node=1"},
	} {
		if s, err := Parse("0s crash node=1\n" + c.line); err == nil {
			t.Errorf("%s: %q parsed to %v", c.why, c.line, s)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not name the line", c.why, err)
		}
	}
}

// Events at one instant apply in (time, kind, target) order whatever
// order the script lists them in.
func TestSortedIgnoresListingOrder(t *testing.T) {
	at := vtime.Time(vtime.Second)
	s := Script{
		{At: at, Kind: KindRate, Stream: 1, Rate: 5},
		{At: at, Kind: KindStraggler, Node: 2, Duration: vtime.Second, Factor: 0.5},
		{At: 0, Kind: KindRate, Stream: 0, Rate: 7},
		{At: at, Kind: KindRate, Stream: 0, Rate: 9},
		{At: at, Kind: KindCrash, Node: 3},
		{At: at, Kind: KindRate, Stream: 0, Rate: 3},
		{At: at, Kind: KindBrownout, Node: 1, Duration: vtime.Second, Factor: 0.5},
		{At: at, Kind: KindCrash, Node: 1},
	}
	want := Script{s[2], s[7], s[4], s[6], s[1], s[5], s[3], s[0]}
	rev := make(Script, len(s))
	for i := range s {
		rev[len(s)-1-i] = s[i]
	}
	for _, order := range []Script{s, rev} {
		if got := order.Sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Sorted =\n%v\nwant\n%v", got, want)
		}
	}
}

func TestParseStringRoundTripsGeneratedScripts(t *testing.T) {
	for name, cfg := range generateConfigs {
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("%s: round trip\n%v\nwant\n%v", name, back, s)
		}
	}
}

// FuzzScript: any bytes either fail to parse or parse to a script whose
// text form parses back to an equal value.
func FuzzScript(f *testing.F) {
	files, _ := filepath.Glob("../core/testdata/*.script")
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add("8s brownout node=1 for=2s factor=0.5\n9s straggler node=3 for=1.5s factor=0.25\n")
	f.Add("1m0.5s rate stream=1 rows=1e+06 # comment\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("String output %q does not parse: %v", s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip moved the script:\n%v\n%v", s, back)
		}
	})
}
