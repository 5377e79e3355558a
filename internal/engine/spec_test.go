package engine

import (
	"strings"
	"testing"

	"saspar/internal/vtime"
)

func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring the error must carry
	}{
		{"nodes", func(c *Config) { c.Nodes = 0 }, "node"},
		{"partitions", func(c *Config) { c.NumPartitions = 0 }, "partitions"},
		{"groups", func(c *Config) { c.NumGroups = -4 }, "groups"},
		{"groups-vs-partitions", func(c *Config) { c.NumGroups = c.NumPartitions - 1 }, "key groups"},
		{"source-tasks", func(c *Config) { c.SourceTasks = 0 }, "source task"},
		{"tuple-weight", func(c *Config) { c.TupleWeight = 0.5 }, "tuple weight"},
		{"tick", func(c *Config) { c.Tick = 0 }, "tick"},
		{"watermark-lag", func(c *Config) { c.WatermarkLag = -1 }, "watermark"},
		{"flow-contention", func(c *Config) { c.FlowContentionCoeff = -0.1 }, "contention"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not describe the violation (%q)", c.name, err, c.want)
		}
		// New must refuse the same config.
		if _, nerr := New(cfg, []StreamDef{testStream("s", 8)}, []QuerySpec{aggQuery("q", 0)}); nerr == nil {
			t.Errorf("%s: New accepted a config Validate rejects", c.name)
		}
	}
}

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRunRejectsNonPositiveDuration(t *testing.T) {
	e, err := New(lightConfig(), []StreamDef{testStream("s", 8)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []vtime.Duration{0, -vtime.Second} {
		err := e.Run(d)
		if err == nil {
			t.Fatalf("Run(%v) accepted", d)
		}
		if !strings.Contains(err.Error(), "duration must be positive") {
			t.Fatalf("Run(%v) error %q does not describe the violation", d, err)
		}
	}
	if before := e.Clock(); before != 0 {
		t.Fatalf("rejected Run still advanced the clock to %v", before)
	}
}
