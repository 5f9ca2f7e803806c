package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of the program.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request (or operation) id shared by related spans
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Req: req})
	return id
}

// end closes span id; a no-op for -1.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// timed runs f inside a span and returns f's wall time.
func (t *tracer) timed(name string, parent int, req int64, f func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTime returns, per span name, the summed self time: each span's
// duration minus the part of it covered by its child spans.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur0, cur1 := int64(-1), int64(-1)
		for _, k := range kids {
			a, z := max(k.Start, s.Start), min(k.End, s.End)
			if z <= a {
				continue
			}
			if a > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = a, z
			} else if z > cur1 {
				cur1 = z
			}
		}
		covered += cur1 - cur0
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
