package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// tracer records spans into a buffer sized before anything is timed.
// Goroutines reserve slots with one atomic add and own them afterwards, so
// recording takes no lock and allocates nothing. A nil *tracer records
// nothing; every method returns -1 or does nothing on it.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, start: t.ns(start), end: t.ns(end), parent: parent, op: op}
	return int32(i)
}

// begin opens a span that end or endAt closes.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) endAt(id int32, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.ns(at)
}

func (t *tracer) end(id int32) { t.endAt(id, time.Now()) }

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durations returns the lengths, in seconds, of the spans called name whose
// parent is called parentName.
func (t *tracer) durations(name, parentName string) []float64 {
	spans := t.recorded()
	var out []float64
	for _, s := range spans {
		if s.name == name && s.parent >= 0 && spans[s.parent].name == parentName {
			out = append(out, float64(s.end-s.start)*1e-9)
		}
	}
	return out
}

// selfTimes checks that every child lies inside its parent and returns,
// per span name, the summed self time in seconds: each span's length minus
// the union of its children.
func (t *tracer) selfTimes() (map[string]float64, error) {
	spans := t.recorded()
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %d %s [%d,%d] lies outside its parent %d %s [%d,%d]",
				i, s.name, s.start, s.end, s.parent, p.name, p.start, p.end)
		}
		kids[s.parent] = append(kids[s.parent], int32(i))
	}
	self := make(map[string]float64)
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		var covered, reach int64
		reach = s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.name] += float64(s.end-s.start-covered) * 1e-9
	}
	return self, nil
}

// write dumps every span as tab-separated
// "id parent op name start_ns end_ns" lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range t.recorded() {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
