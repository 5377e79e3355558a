package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"saspar/internal/scenario"
)

// The determinism grids compare a build with itself; the golden
// digests compare it with history. Every fingerprint the suites cut —
// base run and grid cell alike — is hashed and checked against
// testdata/golden_fingerprints.json, so a refactor that is
// self-consistent but moved an output byte still fails. Digests are
// keyed by GOARCH (fused multiply-add changes float bits across
// architectures); regenerate with
//
//	go test ./internal/core -run 'GoldenTrace|MigrationStaged|MidStageCrash' -update
//
// only in a change that means to move the fingerprint.

const goldenPath = "testdata/golden_fingerprints.json"

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" for this GOARCH from the current build")

// golden maps GOARCH → scenario → sha256 of the run fingerprint.
var golden = func() map[string]map[string]string {
	m := map[string]map[string]string{}
	if b, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			panic(goldenPath + ": " + err.Error())
		}
	}
	return m
}()

// checkGolden asserts fp against the committed digest for scenario. On
// an architecture with no committed digests the check is skipped with
// a message; the grid's self-comparison still runs.
func checkGolden(t *testing.T, scenario string, fp []byte) {
	t.Helper()
	sum := sha256.Sum256(fp)
	got := hex.EncodeToString(sum[:])
	arch := golden[runtime.GOARCH]
	if *updateGolden {
		if arch == nil {
			arch = map[string]string{}
			golden[runtime.GOARCH] = arch
		}
		if arch[scenario] == got {
			return // every grid cell lands here; write the file once
		}
		arch[scenario] = got
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if arch == nil {
		t.Logf("no golden digests for GOARCH=%s in %s; history check skipped (cut them with -update)", runtime.GOARCH, goldenPath)
		return
	}
	want, ok := arch[scenario]
	if !ok {
		t.Fatalf("scenario %q has no golden digest for GOARCH=%s; cut it with -update", scenario, runtime.GOARCH)
	}
	if got != want {
		t.Fatalf("scenario %q fingerprint sha256 %s, golden %s: output moved against history", scenario, got, want)
	}
}

// fingerprint is what every digest hashes: the JSON Report, the
// control-plane event trace and the Prometheus metrics dump of a system
// built with cfg.Obs set.
func fingerprint(t *testing.T, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Trace() {
		fmt.Fprintln(&buf, ev)
	}
	if err := s.cfg.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadScript reads the committed scenario script testdata/<name>.script.
func loadScript(t *testing.T, name string) scenario.Script {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name + ".script")
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Parse(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
