package chaostest

import "testing"

// TestNetFaultRollGolden was recorded at the commit before the SplitMix64
// finalizer moved into fault.Mix64: the remote bench gate and the partition
// storm replay these rolls by seed, so a refactor of the mixer may never
// move them.
func TestNetFaultRollGolden(t *testing.T) {
	f := NewNetFault(nil, NetFaultConfig{Seed: 99})
	want := []float64{0.2615304715693846, 0.0316577610861849, 0.8347597245449443,
		0.10231939626956132, 0.1700589441522914, 0.23466461646336212}
	for i, w := range want {
		if got := f.next(); got != w {
			t.Fatalf("roll %d = %v, want %v", i, got, w)
		}
	}
}
