package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share its
// id; Parent is the index of the span that caused this one (-1 for the op's
// root). Times are nanoseconds since the recorder was created.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	// synth is where the next synthesized child starts.
	synth int64
}

// tracer is the benchmark's own span recorder: spans are recorded from the
// benchmark's files, around each call into a layer, kept in memory and
// written out when the run ends. A nil *tracer records nothing, which is
// the untraced pass.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, StartNS: now, Parent: parent, synth: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// child synthesizes a span of the given duration under parent, from a
// duration the callee reported about itself (e.g. opt.Compiled.SearchTime).
// Children are laid end to end from the parent's start.
func (t *tracer) child(parent int, name string, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.spans[parent]
	start := p.synth
	p.synth += d.Nanoseconds()
	t.spans = append(t.spans, span{Op: p.Op, Name: name, StartNS: start, EndNS: p.synth, Parent: parent, synth: start})
	return len(t.spans) - 1
}

// layerTime is the time one span name took across a traced pass.
type layerTime struct {
	Name  string
	Count int
	// Total is the summed duration; Self is Total minus the part covered by
	// child spans.
	Total, Self time.Duration
}

// byLayer sums span durations and self times by name.
func (t *tracer) byLayer() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		d := s.EndNS - s.StartNS
		lt.Name = s.Name
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - children[i])
		out[s.Name] = lt
	}
	return out
}

// selfTimes lists the layers by descending self time.
func (t *tracer) selfTimes() []layerTime {
	var out []layerTime
	for _, lt := range t.byLayer() {
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
