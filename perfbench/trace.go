package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call: a name, the span that caused it (-1 for a
// root) and its start and end relative to the tracer's epoch.
type span struct {
	name       int32
	parent     int32
	start, end time.Duration
}

// tracer keeps spans in memory; write dumps them when the run ends.
// It lives entirely in the benchmark: spans wrap the public calls the
// benchmark makes, not phases inside the simulator.
type tracer struct {
	epoch time.Time
	names []string
	ids   map[string]int32
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]int32{}}
}

// now is the current time on the tracer's clock.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// id interns a span name.
func (t *tracer) id(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// add records a finished span and returns its index, for use as the
// parent of spans it caused.
func (t *tracer) add(name, parent int32, start, end time.Duration) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// total is the summed duration of every span called name.
func (t *tracer) total(name string) time.Duration {
	id, ok := t.ids[name]
	if !ok {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.name == id {
			d += s.end - s.start
		}
	}
	return d
}

// coverage is the share of the wall time of the root spans called root
// that their direct children account for.
func (t *tracer) coverage(root string) float64 {
	id, ok := t.ids[root]
	if !ok {
		return 0
	}
	var roots, children time.Duration
	for _, s := range t.spans {
		switch {
		case s.parent < 0 && s.name == id:
			roots += s.end - s.start
		case s.parent >= 0 && t.spans[s.parent].parent < 0 && t.spans[s.parent].name == id:
			children += s.end - s.start
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(children) / float64(roots)
}

// write dumps the spans as CSV: name, parent index, start and end in
// nanoseconds since the epoch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", t.names[s.name], s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
