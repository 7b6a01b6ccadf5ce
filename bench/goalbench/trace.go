package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for
// a root). Times are nanoseconds since the tracer started.
type Span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; writing them is the
// caller's last step, so the file system never sits on a measured path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer's clock: monotonic nanoseconds since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant taken elsewhere to the tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// record stores a finished span and returns its ID.
func (t *tracer) record(trace, parent int64, name string, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Name: name, StartNs: start, EndNs: end})
	return id
}

// open is a span whose end is not yet known. Its ID is reserved at start
// so children can name it as their parent before it ends.
type open struct {
	t  *tracer
	id int64
}

func (t *tracer) start(trace, parent int64, name string) open {
	return open{t: t, id: t.record(trace, parent, name, t.now(), 0)}
}

func (o open) end() {
	end := o.t.now()
	o.t.mu.Lock()
	o.t.spans[o.id-1].EndNs = end
	o.t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (spans of
// concurrent workers) count once, and a child sticking out of its parent
// counts only inside it.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		cur := s.StartNs // everything before cur is already counted
		for _, k := range kids {
			lo, hi := max(k.StartNs, cur), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfByName totals self time per span name, in descending order.
type nameTime struct {
	Name  string
	Count int
	Total int64
	Self  int64
}

func selfByName(spans []Span) []nameTime {
	self := selfTimes(spans)
	agg := make(map[string]*nameTime)
	for _, s := range spans {
		nt := agg[s.Name]
		if nt == nil {
			nt = &nameTime{Name: s.Name}
			agg[s.Name] = nt
		}
		nt.Count++
		nt.Total += s.EndNs - s.StartNs
		nt.Self += self[s.ID]
	}
	out := make([]nameTime, 0, len(agg))
	for _, nt := range agg {
		out = append(out, *nt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (nt nameTime) String() string {
	return fmt.Sprintf("%-28s %6d spans  total %10.3f ms  self %10.3f ms",
		nt.Name, nt.Count, float64(nt.Total)/1e6, float64(nt.Self)/1e6)
}
