// Package trace implements the structured tracing and metrics subsystem of
// the execution stack. Every charged operator emits a Span — operator kind
// and label, input/output sparsity metadata, simulated compute/transmit
// seconds, per-primitive bytes, locality, the physical method the cost
// model selected, and real kernel wall-clock nanoseconds — collected into a
// per-run Recorder. Statement and iteration boundaries enclose operator
// spans as zero-cost group spans, so per-statement cost tables fall out of
// the same record.
//
// The key invariant: summed span seconds and bytes over operator spans
// equal the cluster's Stats() totals exactly, because distmat mirrors every
// ChargeProfile call with one span (see Context.apply). Tests cross-check
// this, so accounting drift between the trace and the simulated clock is
// caught immediately.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/sparsity"
)

// Shape is the sparsity metadata of one operand as recorded in a span.
type Shape struct {
	Rows     int64   `json:"rows"`
	Cols     int64   `json:"cols"`
	Sparsity float64 `json:"sparsity"`
}

// ShapeOf converts estimation metadata to the span form.
func ShapeOf(m sparsity.Meta) Shape {
	return Shape{Rows: m.Rows, Cols: m.Cols, Sparsity: m.Sparsity}
}

// Span is one traced operator execution, or (Group true) one
// statement/iteration boundary enclosing operator spans.
type Span struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Kind is the operator family ("mul", "ewise", "sum", "dfs-read", ...)
	// or, for group spans, the boundary kind ("stmt", "iteration").
	Kind string `json:"kind"`
	// Label refines the kind: "mul/BMM", "ewise/+", a statement target.
	Label string `json:"label"`
	// Group marks boundary spans, which carry no cost of their own.
	Group bool `json:"group,omitempty"`
	// Fault marks retry/recovery spans injected by the fault model. They
	// carry RecoverySec (and possibly retransmitted Bytes) but are not
	// operator executions, so Summary counts them separately from Ops.
	Fault bool `json:"fault,omitempty"`
	// Run labels the run the span belongs to (set by the recorder, e.g. the
	// bench configuration).
	Run string `json:"run,omitempty"`

	// Method is the physical implementation the cost model selected.
	Method string `json:"method,omitempty"`
	// Local reports driver-memory (vs distributed) execution.
	Local bool `json:"local"`
	// In and Out carry the virtual-scale operand/result metadata.
	In  []Shape `json:"in,omitempty"`
	Out *Shape  `json:"out,omitempty"`

	FLOP        float64 `json:"flop"`
	ComputeSec  float64 `json:"compute_sec"`
	TransmitSec float64 `json:"transmit_sec"`
	// RecoverySec is the simulated time a fault span spent in backoff,
	// retransmission, straggling or recomputation (fault spans only).
	RecoverySec float64 `json:"recovery_sec,omitempty"`
	// RelErr is the measured relative error a coded decode introduced into
	// the reconstructed blocks (recovery/coded-decode spans only): results
	// on the parity-decode path are tolerance-bounded rather than bitwise
	// identical, and the span flags by exactly how much.
	RelErr float64 `json:"rel_err,omitempty"`
	// Bytes maps primitive name → simulated volume; only charged primitives
	// appear.
	Bytes map[string]float64 `json:"bytes,omitempty"`
	// WallNS is real kernel wall-clock nanoseconds (for group spans, the
	// whole enclosed region).
	WallNS int64 `json:"wall_ns"`
}

// TotalSec returns the span's simulated seconds, recovery included.
func (s Span) TotalSec() float64 { return s.ComputeSec + s.TransmitSec + s.RecoverySec }

// Op builds an operator span from a cost breakdown. The caller supplies the
// real kernel wall time; in/out may be nil for operators without matrix
// operands or results.
func Op(kind, label string, bd cost.Breakdown, in []sparsity.Meta, out *sparsity.Meta, wall time.Duration) Span {
	s := Span{
		Kind:        kind,
		Label:       label,
		Method:      bd.Method.String(),
		Local:       bd.Local,
		FLOP:        bd.FLOP,
		ComputeSec:  bd.ComputeSec,
		TransmitSec: bd.TransmitSec,
		WallNS:      wall.Nanoseconds(),
	}
	for _, m := range in {
		s.In = append(s.In, ShapeOf(m))
	}
	if out != nil {
		o := ShapeOf(*out)
		s.Out = &o
	}
	for _, p := range cluster.Primitives {
		if b := bd.Bytes[p]; b != 0 {
			if s.Bytes == nil {
				s.Bytes = map[string]float64{}
			}
			s.Bytes[p.String()] = b
		}
	}
	return s
}

// FaultOp builds a retry/recovery span. kind is the span family ("fault"
// for injected events, "recovery" for lineage/checkpoint repairs), label
// refines it with the fault kind or recovery policy. flop is the recompute
// FLOP (zero for retries), bytes the retransmitted or re-read volume
// indexed by cluster.Primitive.
func FaultOp(kind, label string, recoverySec, flop float64, bytes [4]float64) Span {
	s := Span{
		Kind:        kind,
		Label:       label,
		Fault:       true,
		RecoverySec: recoverySec,
		FLOP:        flop,
	}
	for _, p := range cluster.Primitives {
		if b := bytes[p]; b != 0 {
			if s.Bytes == nil {
				s.Bytes = map[string]float64{}
			}
			s.Bytes[p.String()] = b
		}
	}
	return s
}

// Recorder collects the spans of one run. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so callers thread an
// optional recorder without guarding every call site.
type Recorder struct {
	run string

	mu     sync.Mutex
	spans  []Span
	stack  []int64
	starts map[int64]time.Time
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// NewRun returns a recorder that stamps every span with a run label.
func NewRun(run string) *Recorder { return &Recorder{run: run} }

// Record appends an operator span, assigning its ID and parenting it under
// the innermost open group span. It returns the assigned ID (0 when the
// recorder is nil).
func (r *Recorder) Record(s Span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.record(s)
}

func (r *Recorder) record(s Span) int64 {
	s.ID = int64(len(r.spans) + 1)
	s.Run = r.run
	if n := len(r.stack); n > 0 && s.Parent == 0 {
		s.Parent = r.stack[n-1]
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// Begin opens a group span (statement/iteration boundary). Operator spans
// recorded before the matching End are parented under it. Returns the group
// span's ID (0 when the recorder is nil).
func (r *Recorder) Begin(kind, label string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.record(Span{Kind: kind, Label: label, Group: true})
	r.stack = append(r.stack, id)
	if r.starts == nil {
		r.starts = map[int64]time.Time{}
	}
	r.starts[id] = time.Now()
	return id
}

// End closes a group span opened by Begin, recording its real wall time.
func (r *Recorder) End(id int64) {
	if r == nil || id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id <= int64(len(r.spans)) {
		r.spans[id-1].WallNS = time.Since(r.starts[id]).Nanoseconds()
		delete(r.starts, id)
	}
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == id {
			r.stack = append(r.stack[:i:i], r.stack[i+1:]...)
			break
		}
	}
}

// Spans returns a snapshot of the recorded spans in record order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one JSON object per span per line (the remac-bench
// -trace format).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// KindStat aggregates the operator spans of one kind.
type KindStat struct {
	Kind        string
	Ops         int
	FLOP        float64
	ComputeSec  float64
	TransmitSec float64
	// RecoverySec sums the fault/recovery time booked under this kind.
	RecoverySec float64
	Bytes       map[string]float64
}

// TotalSec returns the kind's simulated seconds, recovery included.
func (k KindStat) TotalSec() float64 { return k.ComputeSec + k.TransmitSec + k.RecoverySec }

// Summary is the aggregate view of a recording over operator (non-group)
// spans. Its totals satisfy the stats-equals-spans invariant against
// cluster.Stats: Ops, FLOP, seconds and bytes cover operator spans, while
// fault spans contribute only Faults, RecoverySec, RecomputeFLOP and their
// retransmitted Bytes — mirroring how the cluster books them.
type Summary struct {
	Ops         int
	FLOP        float64
	ComputeSec  float64
	TransmitSec float64
	// Faults counts fault/recovery spans (not included in Ops).
	Faults int
	// RecoverySec sums fault-span recovery seconds (matches
	// Stats.RecoverySec).
	RecoverySec float64
	// RecomputeFLOP sums fault-span FLOP (matches Stats.RecomputeFLOP).
	RecomputeFLOP float64
	// Bytes accumulates per-primitive volumes across all operator and fault
	// spans.
	Bytes map[string]float64
	// ByKind aggregates per operator kind, sorted by descending simulated
	// seconds.
	ByKind []KindStat
}

// TotalSec returns the summed simulated seconds, recovery included.
func (s Summary) TotalSec() float64 { return s.ComputeSec + s.TransmitSec + s.RecoverySec }

// Summary aggregates the recording.
func (r *Recorder) Summary() Summary {
	sum := Summary{Bytes: map[string]float64{}}
	byKind := map[string]*KindStat{}
	for _, s := range r.Spans() {
		if s.Group {
			continue
		}
		k := byKind[s.Kind]
		if k == nil {
			k = &KindStat{Kind: s.Kind, Bytes: map[string]float64{}}
			byKind[s.Kind] = k
		}
		for p, b := range s.Bytes {
			sum.Bytes[p] += b
			k.Bytes[p] += b
		}
		if s.Fault {
			sum.Faults++
			sum.RecoverySec += s.RecoverySec
			sum.RecomputeFLOP += s.FLOP
			k.Ops++
			k.RecoverySec += s.RecoverySec
			continue
		}
		sum.Ops++
		sum.FLOP += s.FLOP
		sum.ComputeSec += s.ComputeSec
		sum.TransmitSec += s.TransmitSec
		k.Ops++
		k.FLOP += s.FLOP
		k.ComputeSec += s.ComputeSec
		k.TransmitSec += s.TransmitSec
	}
	for _, k := range byKind {
		sum.ByKind = append(sum.ByKind, *k)
	}
	sort.Slice(sum.ByKind, func(i, j int) bool {
		a, b := sum.ByKind[i], sum.ByKind[j]
		if a.TotalSec() != b.TotalSec() {
			return a.TotalSec() > b.TotalSec()
		}
		return a.Kind < b.Kind
	})
	return sum
}

// GroupCost aggregates the operator spans enclosed by group spans sharing a
// label — e.g. one statement across all iterations.
type GroupCost struct {
	Label string
	// Executions counts the group spans (e.g. times the statement ran).
	Executions int
	// Ops counts the enclosed operator spans (fault spans excluded).
	Ops         int
	FLOP        float64
	ComputeSec  float64
	TransmitSec float64
	// RecoverySec sums enclosed fault-span recovery time.
	RecoverySec float64
	WallNS      int64
}

// TotalSec returns the group's simulated seconds, recovery included.
func (g GroupCost) TotalSec() float64 { return g.ComputeSec + g.TransmitSec + g.RecoverySec }

// GroupCosts aggregates operator spans by the label of their nearest
// enclosing group span of the given kind (e.g. "stmt" for the per-statement
// simulated-cost table), in first-execution order. Operator spans with no
// such ancestor are collected under the empty label, first.
func (r *Recorder) GroupCosts(kind string) []GroupCost {
	spans := r.Spans()
	byID := make(map[int64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	enclosing := func(s Span) string {
		for p := s.Parent; p != 0; {
			ps, ok := byID[p]
			if !ok {
				break
			}
			if ps.Group && ps.Kind == kind {
				return ps.Label
			}
			p = ps.Parent
		}
		return ""
	}
	byLabel := map[string]*GroupCost{}
	var order []string
	get := func(label string) *GroupCost {
		g := byLabel[label]
		if g == nil {
			g = &GroupCost{Label: label}
			byLabel[label] = g
			order = append(order, label)
		}
		return g
	}
	for _, s := range spans {
		if s.Group {
			if s.Kind == kind {
				g := get(s.Label)
				g.Executions++
				g.WallNS += s.WallNS
			}
			continue
		}
		g := get(enclosing(s))
		if s.Fault {
			g.RecoverySec += s.RecoverySec
			continue
		}
		g.Ops++
		g.FLOP += s.FLOP
		g.ComputeSec += s.ComputeSec
		g.TransmitSec += s.TransmitSec
	}
	out := make([]GroupCost, 0, len(order))
	for _, label := range order {
		if g := byLabel[label]; g.Ops > 0 || g.Executions > 0 {
			out = append(out, *g)
		}
	}
	return out
}
