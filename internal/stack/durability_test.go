package stack

import (
	"flag"
	"path/filepath"
	"testing"

	"doxmeter/internal/core"
)

func parse(t *testing.T, full bool, args ...string) (*Durability, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var d Durability
	d.RegisterFlags(fs, full)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &d, d.Validate()
}

func TestRegisterAndValidate(t *testing.T) {
	// Defaults: non-durable, valid.
	d, err := parse(t, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Durable() || d.DeltaMode() || d.Resume {
		t.Fatalf("defaults = %+v", d)
	}

	// The full surface round-trips every flag.
	d, err = parse(t, true, "-state-dir", "x", "-checkpoint-mode", "delta", "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Durable() || !d.DeltaMode() || !d.Resume {
		t.Fatalf("full surface = %+v", d)
	}

	// The subset surface still validates and keeps full-mode defaults.
	d, err = parse(t, false, "-state-dir", "x", "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != string(core.CheckpointFull) || d.DeltaMode() {
		t.Fatalf("subset mode = %q", d.Mode)
	}

	// The subset surface must not expose the full-only flags.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var sub Durability
	sub.RegisterFlags(fs, false)
	if fs.Lookup("checkpoint-mode") != nil {
		t.Error("subset surface exposes -checkpoint-mode")
	}

	for _, args := range [][]string{
		{"-resume"}, // -resume requires -state-dir
		{"-state-dir", "x", "-checkpoint-mode", "bogus"},
	} {
		if _, err := parse(t, true, args...); err == nil {
			t.Errorf("Validate accepted %v", args)
		}
	}
}

func TestOpen(t *testing.T) {
	// Non-durable: everything nil, no error.
	d, err := parse(t, true)
	if err != nil {
		t.Fatal(err)
	}
	if st, ck, err := d.Open(); st != nil || ck != nil || err != nil {
		t.Fatalf("non-durable Open = %v %v %v", st, ck, err)
	}

	dir := filepath.Join(t.TempDir(), "state")
	d, err = parse(t, true, "-state-dir", dir, "-checkpoint-mode", "delta")
	if err != nil {
		t.Fatal(err)
	}
	st, ck, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ck.Store != st || ck.Mode != core.CheckpointDelta {
		t.Fatalf("checkpoint config = %+v", ck)
	}
}
