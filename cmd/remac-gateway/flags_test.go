package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"remac/internal/gateway"
)

// TestFlagSurfaceGolden pins the binary's flag names. A new flag fails here
// until it is added below — and to the knob table in DESIGN.md §16, with
// the bench arm, chaos storm, test seam or deployment need that sets it to
// something other than its default. A flag without one is a constant.
func TestFlagSurfaceGolden(t *testing.T) {
	fs := flag.NewFlagSet("remac-gateway", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"addr", "attempt-timeout", "batch-window", "default-quota", "eject-after",
		"inter-budget", "max-body", "passive-failures", "plan-cache", "probe-interval", "queue", "quota",
		"ready-quorum", "recovery", "rejoin-probes", "seed", "shard", "shards",
		"timeout", "workers"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// TestFlagsReachTheConfig: flags write straight into the configuration the
// gateway is built from, repeatable ones included.
func TestFlagsReachTheConfig(t *testing.T) {
	fs := flag.NewFlagSet("remac-gateway", flag.ContinueOnError)
	o := registerFlags(fs)
	err := fs.Parse([]string{"-shards", "0", "-shard", "http://a:1", "-shard", " https://b:2 ", "-quota", "noisy=0.5:1:2",
		"-workers", "3", "-ready-quorum", "2", "-attempt-timeout", "3s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Shards != 0 || o.cfg.Serve.Workers != 3 || o.cfg.ReadyQuorum != 2 || o.cfg.Serve.QueueDepth != 64 ||
		!reflect.DeepEqual(o.remotes, []string{"http://a:1", "https://b:2"}) || o.remote.AttemptTimeout.Seconds() != 3 ||
		o.cfg.Quotas["noisy"] != (gateway.TenantQuota{QPS: 0.5, Burst: 1, MaxConcurrent: 2}) {
		t.Fatalf("parsed options %+v", o)
	}
	if err := fs.Parse([]string{"-shard", "ftp://c"}); err == nil {
		t.Fatal("-shard accepted a non-http URL")
	}
}

// TestHostileInvalidateCardinalityIsBounded (gateway front-end): made-up
// dataset names never reach the gateway's version map, which has no
// eviction and is replayed to every rejoining shard — 100k of them are 100k
// typed 400s, no broadcast, and not one version entry (an entry exists only
// once bumped, so version 0 means none).
func TestHostileInvalidateCardinalityIsBounded(t *testing.T) {
	h, mux := testHandler(t, gateway.Config{})
	const hostile = 100_000
	for i := 0; i < hostile; i++ {
		name := fmt.Sprintf("bot-%d", i)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset="+name, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /invalidate?dataset=%s = %d, want 400", name, rec.Code)
		}
		if i%997 == 0 && h.gw.DatasetVersion(name) != 0 {
			t.Fatalf("rejected name %q holds a version entry", name)
		}
	}
	if st := h.gw.Stats(); st.Invalidations != 0 {
		t.Fatalf("%d broadcasts went out for unknown datasets", st.Invalidations)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset=cri1", nil))
	if rec.Code != http.StatusOK || h.gw.DatasetVersion("cri1") != 1 {
		t.Fatalf("POST /invalidate?dataset=cri1 = %d, version %d", rec.Code, h.gw.DatasetVersion("cri1"))
	}
}
