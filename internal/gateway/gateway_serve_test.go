package gateway

import (
	"context"
	"math"
	"testing"

	"remac/internal/serve"
)

// TestGatewayServesRealShardsBitwiseIdentical: a query routed through a
// gateway of 1, 2 or 4 real shards returns bitwise the same values as a
// direct single serve.Server run, the repeat hits the home shard's plan
// cache, and invalidation fan-out reaches every real shard.
func TestGatewayServesRealShardsBitwiseIdentical(t *testing.T) {
	realShardsMatchDirect(t, "DFP", "cri1", 2)
	realShardsMatchDirect(t, "GD", "cri1", 1)
	realShardsMatchDirect(t, "GNMF", "red2", 4)
}

func realShardsMatchDirect(t *testing.T, alg, dataset string, shards int) {
	q := remoteQuery(t, alg, dataset, 3)

	direct := serve.New(serve.Config{Workers: 2})
	want, err := direct.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("direct serve: %v", err)
	}
	if err := direct.Shutdown(context.Background()); err != nil {
		t.Fatalf("direct shutdown: %v", err)
	}

	g := New(Config{Shards: shards, Serve: serve.Config{Workers: 2}, Seed: 11})
	res1, err := g.Do(context.Background(), Request{Tenant: "alice", Query: q})
	if err != nil {
		t.Fatalf("gateway Do: %v", err)
	}
	res2, err := g.Do(context.Background(), Request{Tenant: "alice", Query: q})
	if err != nil {
		t.Fatalf("gateway repeat Do: %v", err)
	}

	for name, m := range want.Values {
		gm, rm := res1.Values[name], res2.Values[name] // rm: the repeat, served from the home shard's caches
		if gm == nil || rm == nil {
			t.Fatalf("gateway result missing variable %s", name)
		}
		if m.Rows() != gm.Rows() || m.Cols() != gm.Cols() || m.Rows() != rm.Rows() || m.Cols() != rm.Cols() {
			t.Fatalf("variable %s shape differs", name)
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if w := math.Float64bits(m.At(i, j)); w != math.Float64bits(gm.At(i, j)) || w != math.Float64bits(rm.At(i, j)) {
					t.Fatalf("%s/%s at %d shards: variable %s differs bitwise at (%d,%d)", alg, dataset, shards, name, i, j)
				}
			}
		}
	}

	if res1.Shard != res2.Shard {
		t.Fatalf("affinity broken on real shards: %d then %d", res1.Shard, res2.Shard)
	}
	if !res2.PlanCacheHit {
		t.Fatal("repeat on the home shard missed the plan cache")
	}

	v := g.InvalidateDataset(dataset)
	if v != 1 {
		t.Fatalf("invalidation version = %d, want 1", v)
	}
	for i, sv := range g.ShardVersions(dataset) {
		if sv != v {
			t.Fatalf("real shard %d at version %d after fan-out returned, want %d", i, sv, v)
		}
	}

	st := g.Stats()
	if st.Merged.Completed != 2 {
		t.Fatalf("merged Completed = %d, want 2", st.Merged.Completed)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("gateway shutdown: %v", err)
	}
}
