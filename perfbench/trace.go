package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one query share req;
// parent is the index of the enclosing span, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span of a run in memory; write saves them when the
// run ends, so recording a span costs two clock reads and an append.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0) }

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		lo, hi := s.Start, s.Start // the merged run of children being built
		for _, c := range ivs {
			c.lo, c.hi = max(c.lo, s.Start), min(c.hi, s.End)
			if c.hi <= c.lo {
				continue
			}
			if c.lo > hi {
				covered += hi - lo
				lo, hi = c.lo, c.hi
			} else if c.hi > hi {
				hi = c.hi
			}
		}
		covered += hi - lo
		self[i] = s.End - s.Start - covered
	}
	return self
}
