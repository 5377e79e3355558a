// Package cliflags holds the execution-knob flag cluster every saspar
// binary used to re-declare by hand: -batch, -workers and -seed. The
// knobs are pure execution parameters — output is byte-identical at
// any -batch value, -workers only sizes the run-matrix pool — so their
// definitions, help strings and validation belong in one place instead
// of six subcommand copies.
package cliflags

import (
	"flag"
	"fmt"

	"saspar/internal/engine"
)

// Common is the shared execution-flag cluster. Register installs the
// knobs a command uses on its FlagSet; Validate checks them all at
// once with the same messages everywhere.
type Common struct {
	// Batch is the generation block size (0 = engine default of 64,
	// 1 = tuple-at-a-time).
	Batch int
	// Workers sizes the run-matrix pool (0 = SASPAR_PARALLEL env, then
	// GOMAXPROCS). Only meaningful to commands that fan runs out.
	Workers int
	// Seed is the simulation seed.
	Seed int64
}

// Register installs -batch, the knob every engine-running command
// shares.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Batch, "batch", 0, "generation block size (0 = engine default of 64, 1 = tuple-at-a-time)")
}

// RegisterSeed additionally installs -seed (default 1).
func (c *Common) RegisterSeed(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "seed", 1, "simulation seed")
}

// RegisterWorkers additionally installs -workers for commands that fan
// runs over the run-matrix pool.
func (c *Common) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", 0, "run-matrix pool size (0 = SASPAR_PARALLEL env, then GOMAXPROCS)")
}

// Validate checks every registered knob (unregistered ones hold their
// valid zero values, so one check covers all commands).
func (c *Common) Validate() error {
	if c.Batch < 0 || c.Batch > 1<<16 {
		return fmt.Errorf("-batch must be in [0, %d], got %d", 1<<16, c.Batch)
	}
	if c.Workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Apply copies the engine-facing knobs into an engine configuration.
// Seed is copied only when set (commands without RegisterSeed keep the
// configuration's own default).
func (c *Common) Apply(cfg *engine.Config) {
	cfg.BatchSize = c.Batch
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
}
