// Package stack wires the command-line front ends to the study engine.
// It holds the flag surfaces every binary would otherwise duplicate —
// currently the durability block (-state-dir, -checkpoint-mode, -resume)
// that doxpipeline and doxnotify both expose — so flag names, defaults,
// help strings and the validation rules stay identical across commands.
// A durable run cuts a checkpoint at the end of every study day.
package stack

import (
	"errors"
	"flag"
	"fmt"

	"doxmeter/internal/core"
	"doxmeter/internal/store"
)

// Durability is the shared durable-run flag block. Zero value = the
// defaults every command ships; call RegisterFlags to expose it, then
// Validate once flags are parsed, then Open to build the checkpoint
// config.
type Durability struct {
	// StateDir is -state-dir: the checkpoint directory. Empty means a
	// non-durable run (every other field is then inert).
	StateDir string
	// Mode is -checkpoint-mode: "full" or "delta".
	Mode string
	// Resume is -resume: continue from the latest checkpoint in StateDir.
	Resume bool
}

// RegisterFlags installs the durability block on fs. full exposes the
// whole surface; false registers only the core subset (-state-dir,
// -resume) for commands that keep the full-snapshot default.
func (d *Durability) RegisterFlags(fs *flag.FlagSet, full bool) {
	fs.StringVar(&d.StateDir, "state-dir", "", "directory for durable checkpoints (snapshots + commit log); empty = non-durable run")
	fs.BoolVar(&d.Resume, "resume", false, "resume from the latest checkpoint in -state-dir")
	d.Mode = string(core.CheckpointFull)
	if !full {
		return
	}
	fs.StringVar(&d.Mode, "checkpoint-mode", string(core.CheckpointFull), "checkpoint strategy: full (every cut is a complete snapshot) or delta (incremental diffs, compacted once they outweigh the last full)")
}

// Validate checks the parsed block for the cross-flag rules shared by
// every command. Call it after flag.Parse and before Open.
func (d *Durability) Validate() error {
	if d.Resume && d.StateDir == "" {
		return errors.New("-resume requires -state-dir")
	}
	switch core.CheckpointMode(d.Mode) {
	case core.CheckpointFull, core.CheckpointDelta:
	default:
		return fmt.Errorf("-checkpoint-mode must be %q or %q, got %q", core.CheckpointFull, core.CheckpointDelta, d.Mode)
	}
	return nil
}

// Durable reports whether a state dir was given.
func (d *Durability) Durable() bool { return d.StateDir != "" }

// DeltaMode reports whether the delta checkpoint strategy is selected.
func (d *Durability) DeltaMode() bool { return core.CheckpointMode(d.Mode) == core.CheckpointDelta }

// Open opens the state dir and builds the study's checkpoint config.
// Without -state-dir it returns (nil, nil, nil): the run is non-durable.
// The caller owns the returned store and must Close it.
func (d *Durability) Open() (*store.File, *core.CheckpointConfig, error) {
	if d.StateDir == "" {
		return nil, nil, nil
	}
	fileStore, err := store.OpenFile(d.StateDir)
	if err != nil {
		return nil, nil, err
	}
	return fileStore, &core.CheckpointConfig{Store: fileStore, Mode: core.CheckpointMode(d.Mode)}, nil
}
