package remac_test

import (
	"reflect"
	"testing"

	"remac"
	"remac/internal/fault"
	"remac/internal/opt"
	"remac/internal/serve"
)

// TestSettableFieldSurfaceGolden pins the exported fields of the query,
// fault and planner configurations, the library-side counterpart of the
// serving binaries' TestFlagSurfaceGolden. A field is a knob: it stays only
// while some caller sets it to a second value, and DESIGN.md §16's knob
// table names that caller.
func TestSettableFieldSurfaceGolden(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{serve.Query{}, []string{"Script", "Inputs", "Dataset", "Strategy", "Iterations", "Timeout",
			"MaxIterations", "Faults", "Recovery", "Verify", "NaNGuard", "NoPlanCache", "NoIntermediateCache",
			"Probe", "IdempotencyKey", "Algorithm"}},
		{fault.Config{}, []string{"Seed", "WorkerFailuresPerHour", "TransmitErrorsPerHour", "StragglersPerHour",
			"CorruptionsPerHour", "Workers"}},
		{fault.Event{}, []string{"At", "Kind", "Worker", "Bits"}},
		{opt.Config{}, []string{"Strategy", "Estimator", "Cluster", "Iterations", "Combiner", "EnumBudget",
			"ManualKeys"}},
		{remac.FaultConfig{}, []string{"Seed", "WorkerFailuresPerHour", "TransmitErrorsPerHour",
			"StragglersPerHour", "CorruptionsPerHour"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v fields changed:\n got %q\nwant %q\na new field needs a row in DESIGN.md §16's knob table naming the caller that sets it",
				typ, got, c.want)
		}
	}
}
