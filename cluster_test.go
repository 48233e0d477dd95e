package remac

import (
	"testing"

	"remac/internal/cluster"
)

// TestClusterConfigReachesTheCompiler: a one-node configuration keeps the
// driver memory it sets, and the public single-node profile is the one the
// Fig 3(b) experiment runs.
func TestClusterConfigReachesTheCompiler(t *testing.T) {
	if got := (ClusterConfig{Nodes: 1, DriverMemoryGB: 8}).internal().DriverMemory; got != 8<<30 {
		t.Errorf("one node with DriverMemoryGB 8 compiles with %d bytes of driver memory, want %d", got, int64(8<<30))
	}
	if got, want := SingleNodeCluster().internal(), cluster.SingleNodeConfig(); got != want {
		t.Errorf("SingleNodeCluster compiles as %+v, want cluster.SingleNodeConfig %+v", got, want)
	}
	if got, want := DefaultCluster().internal(), cluster.DefaultConfig(); got != want {
		t.Errorf("DefaultCluster compiles as %+v, want cluster.DefaultConfig %+v", got, want)
	}
}
