package core

import (
	"bytes"
	"strings"
	"testing"

	"saspar/internal/checkpoint"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
)

// Checkpointed recovery through the full control loop, plus the
// metric-unit audit the checkpoint metrics introduced.

func runCrashSystem(t *testing.T, ckpt checkpoint.Config) Report {
	t.Helper()
	cfg := recoveryCfg(scenario.Crash(3, vtime.Time(5*vtime.Second)))
	cfg.Checkpoint = ckpt
	cfg.Obs = obs.New()
	s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 20000)
	s.Run(20 * vtime.Second)
	snap := s.Snapshot()
	if snap.Recoveries == 0 || snap.RecoveryPending {
		t.Fatalf("recovery never completed: %+v", snap)
	}
	return snap
}

func TestCheckpointedRecoveryRestoresState(t *testing.T) {
	with := runCrashSystem(t, checkpoint.Config{Interval: vtime.Second})
	if with.Checkpoints == 0 {
		t.Fatal("no checkpoints completed before the crash")
	}
	if with.CheckpointBytes <= 0 {
		t.Fatal("checkpoints stored no bytes")
	}
	if with.RestoredBytes <= 0 {
		t.Fatal("recovery restored nothing despite checkpoints")
	}

	without := runCrashSystem(t, checkpoint.Config{})
	if without.Checkpoints != 0 || without.RestoredBytes != 0 {
		t.Fatalf("vanilla run checkpointed/restored: %+v", without)
	}
	if without.LostBytes <= 0 {
		t.Fatal("crash destroyed nothing")
	}
}

func TestCheckpointConfigValidatedThroughCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoint = checkpoint.Config{Interval: -vtime.Second}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}
	cfg.Enabled = false
	if err := cfg.Validate(); err == nil {
		t.Fatal("checkpoint knobs skipped validation on a disabled layer")
	}
	cfg.Checkpoint = checkpoint.Config{Interval: vtime.Second, Retention: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative retention accepted")
	}
	// StoreNode range is only checkable against a cluster: New rejects it.
	good := recoveryCfg(nil)
	good.Checkpoint = checkpoint.Config{Interval: vtime.Second, StoreNode: 64}
	if _, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), good); err == nil {
		t.Fatal("StoreNode beyond the cluster accepted by New")
	}
}

// TestTimeHistogramUnitsDocumented audits every time-valued histogram
// the recovery and checkpoint paths register: they all observe virtual
// seconds, and each help string must say so — the regression this
// guards is a histogram observing one unit while its name or help
// implies another.
func TestTimeHistogramUnitsDocumented(t *testing.T) {
	cfg := recoveryCfg(scenario.Crash(3, vtime.Time(5*vtime.Second)))
	cfg.Checkpoint = checkpoint.Config{Interval: vtime.Second}
	cfg.Obs = obs.New()
	s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 20000)
	s.Run(20 * vtime.Second)

	var buf bytes.Buffer
	if err := cfg.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	timeHists := []string{
		"saspar_fault_recovery_seconds",
		"saspar_fault_restore_seconds",
		"saspar_checkpoint_duration_seconds",
	}
	for _, name := range timeHists {
		if !strings.Contains(dump, name+"_bucket") {
			t.Errorf("%s never observed a sample in a checkpointed-crash run", name)
		}
		help := ""
		for _, line := range strings.Split(dump, "\n") {
			if strings.HasPrefix(line, "# HELP "+name+" ") {
				help = line
			}
		}
		if help == "" {
			t.Errorf("%s has no HELP line", name)
			continue
		}
		if !strings.Contains(help, "Unit: virtual seconds.") {
			t.Errorf("%s help does not document its unit: %q", name, help)
		}
	}
	// The interval gauge documents the same unit.
	if !strings.Contains(dump, "saspar_checkpoint_interval_seconds") {
		t.Error("interval gauge missing from dump")
	}
}
