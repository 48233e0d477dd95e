package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurfaceGolden pins the binary's flag names. A new flag fails here
// until it is added below — and to the knob table in DESIGN.md §16, with
// the bench arm, chaos storm, test seam or deployment need that sets it to
// something other than its default. A flag without one is a constant.
func TestFlagSurfaceGolden(t *testing.T) {
	fs := flag.NewFlagSet("remac-serve", flag.ContinueOnError)
	o := registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"addr", "batch-window", "inter-budget", "max-body", "plan-cache", "queue", "recovery",
		"retries", "shard", "timeout", "workers"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
	// Flags write straight into the configuration the server is built from.
	if err := fs.Parse([]string{"-retries", "-1", "-shard", "shard-7", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if c := o.cfg; c.Retry.MaxAttempts != -1 || c.ShardID != "shard-7" || c.Workers != 3 || c.QueueDepth != 64 {
		t.Fatalf("parsed config %+v", c)
	}
}
