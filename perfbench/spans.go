package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one host-time interval the traced run recorded around a call
// into a layer's public API. Times are host nanoseconds since the
// tracer's origin. Parent is the ID of the span that caused this one,
// 0 for a root.
type Span struct {
	ID, Parent int64
	Name       string
	Start, End int64
}

// Tracer keeps spans in memory, one lane per host goroutine that can
// record concurrently (lane 0 is the driver; lane 1+s is partition
// shard s), so recording takes no lock. The driver opens a phase span
// around each RunUntil call; every leaf span recorded while it is open
// names it as parent. A nil *Tracer records nothing, so untraced runs
// pay one nil check per call site.
type Tracer struct {
	origin time.Time
	lanes  [][]Span
	phase  int64 // ID of the open phase span, 0 outside phases
}

// NewTracer returns a tracer with lanes for the driver and `shards`
// concurrent shard goroutines.
func NewTracer(shards int) *Tracer {
	return &Tracer{origin: time.Now(), lanes: make([][]Span, 1+shards)}
}

// Now returns the host clock for a span start; 0 when untraced.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// Leaf records a span from start to now on the lane of shard s (0 for
// a single kernel), parented under the open phase.
func (t *Tracer) Leaf(s int, name string, start int64) {
	if t == nil {
		return
	}
	l := s + 1
	id := int64(l)<<32 | int64(len(t.lanes[l])+1)
	t.lanes[l] = append(t.lanes[l], Span{ID: id, Parent: t.phase, Name: name, Start: start, End: t.Now()})
}

// Phase runs fn inside a root span named name on the driver lane. fn
// is a RunUntil call; shard goroutines it starts record leaves under it.
func (t *Tracer) Phase(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := int64(len(t.lanes[0]) + 1)
	start := t.Now()
	t.phase = id
	fn()
	t.phase = 0
	t.lanes[0] = append(t.lanes[0], Span{ID: id, Name: name, Start: start, End: t.Now()})
}

// Spans returns every recorded span, driver lane first.
func (t *Tracer) Spans() []Span {
	var all []Span
	for _, l := range t.lanes {
		all = append(all, l...)
	}
	return all
}

// SelfTimes returns, per span name, the sum of each span's self time:
// its duration minus the part of its interval that its children cover.
// Children may overlap one another (shards run in parallel), so the
// covered part is the length of the union of the children's intervals,
// clipped to the parent.
func SelfTimes(spans []Span) map[string]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes spans to path as tab-separated lines: id, parent,
// name, start ns, end ns.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
