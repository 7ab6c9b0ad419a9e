package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans in memory: name, start, end, parent, and one
// request ID shared by every span of one device update or session. A
// span's parent is the innermost span still open on the same goroutine
// — the seams the benchmark wraps all run synchronously on the caller's
// goroutine — so no context has to be threaded through the program. A
// span opened on a goroutine with nothing open starts a new request.
//
// Requests whose root span is an op (named "bench.*") are sampled: about
// one in every is recorded, the others only tracked so their nested
// spans are skipped too. Other roots, such as publishes on the release
// goroutine, are always recorded.
//
// A nil *Tracer records nothing; the untraced run installs no wrappers
// at all.
type Tracer struct {
	epoch time.Time
	every int64
	ops   atomic.Int64
	reqs  atomic.Uint32

	gs  sync.Map // goid → *goTrace
	mu  sync.Mutex
	all []*goTrace
}

// goTrace is one goroutine's spans; only that goroutine appends to it.
// Parents are indexes into the same slice, since a parent is always
// open on the child's goroutine.
type goTrace struct {
	spans []span
	// stack holds the open spans; -1 marks a span of an unrecorded
	// request.
	stack []int32
}

// span is one recorded interval; times are nanoseconds since the
// tracer's epoch and End is 0 while the span is open.
type span struct {
	Name   string
	Parent int32
	Req    uint32
	Start  int64
	End    int64
}

// opPrefix names the root spans that enclose one op.
const opPrefix = "bench."

func newTracer(every int) *Tracer {
	return &Tracer{epoch: time.Now(), every: int64(every)}
}

func (t *Tracer) goTrace() *goTrace {
	g := goid()
	if v, ok := t.gs.Load(g); ok {
		return v.(*goTrace)
	}
	gt := &goTrace{}
	t.gs.Store(g, gt)
	t.mu.Lock()
	t.all = append(t.all, gt)
	t.mu.Unlock()
	return gt
}

// Begin opens a span named name on the calling goroutine and returns
// its handle for End.
func (t *Tracer) Begin(name string) int32 {
	if t == nil {
		return -1
	}
	gt := t.goTrace()
	s := span{Name: name, Parent: -1}
	if n := len(gt.stack); n > 0 {
		s.Parent = gt.stack[n-1]
		if s.Parent < 0 {
			gt.stack = append(gt.stack, -1)
			return -1
		}
		s.Req = gt.spans[s.Parent].Req
	} else {
		if strings.HasPrefix(name, opPrefix) && !t.sampled(t.ops.Add(1)) {
			gt.stack = append(gt.stack, -1)
			return -1
		}
		s.Req = t.reqs.Add(1)
	}
	s.Start = time.Since(t.epoch).Nanoseconds()
	id := int32(len(gt.spans))
	gt.spans = append(gt.spans, s)
	gt.stack = append(gt.stack, id)
	return id
}

// End closes the span Begin returned. Spans close innermost first.
func (t *Tracer) End(id int32) {
	if t == nil {
		return
	}
	gt := t.goTrace()
	if id >= 0 {
		gt.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
	if n := len(gt.stack); n > 0 {
		gt.stack = gt.stack[:n-1]
	}
}

// sampled decides whether the n-th op is recorded. The choice is a hash
// of n rather than a stride, so it cannot line up with a workload's own
// period — such as the first update of every release, the one that
// computes the diff.
func (t *Tracer) sampled(n int64) bool {
	x := uint64(n) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	return (x*0xBF58476D1CE4E5B9>>32)%uint64(t.every) == 0
}

// interval is a half-open [Start, End) span of nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is the part of parent not covered by any child: the span's
// duration minus the union (not the sum) of its children, each clipped
// to the parent.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start, c.End = max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.Start, b.Start) })
	covered, reach := int64(0), parent.Start
	for _, c := range cs {
		if c.End <= reach {
			continue
		}
		covered += c.End - max(c.Start, reach)
		reach = c.End
	}
	return parent.End - parent.Start - covered
}

// layerTotals aggregates closed spans of one name.
type layerTotals struct {
	Count int   `json:"count"`
	Self  int64 `json:"self_ns"`
	Incl  int64 `json:"incl_ns"`
}

// summary aggregates every closed span by name. under holds the spans
// of recorded ops (requests whose root is an op), separate all others;
// ops counts the recorded ops. Call it once every traced goroutine has
// stopped.
func (t *Tracer) summary() (under, separate map[string]layerTotals, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	under = make(map[string]layerTotals)
	separate = make(map[string]layerTotals)
	for _, gt := range t.all {
		children := make([][]interval, len(gt.spans))
		rootOf := make([]int32, len(gt.spans))
		for i, s := range gt.spans {
			rootOf[i] = int32(i)
			if s.Parent >= 0 {
				rootOf[i] = rootOf[s.Parent] // parents precede children
				if s.End > 0 {
					children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
				}
			}
		}
		for i, s := range gt.spans {
			if s.End == 0 {
				continue
			}
			agg := separate
			if strings.HasPrefix(gt.spans[rootOf[i]].Name, opPrefix) {
				agg = under
				if s.Parent < 0 {
					ops++
				}
			}
			lt := agg[s.Name]
			lt.Count++
			lt.Incl += s.End - s.Start
			lt.Self += selfTime(interval{s.Start, s.End}, children[i])
			agg[s.Name] = lt
		}
	}
	return under, separate, ops
}

// write dumps every recorded span as tab-separated text: id, parent
// (-1 for a root), request, name, and start and end in nanoseconds
// since the tracer started.
func (t *Tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	base := 0
	for _, gt := range t.all {
		for i, s := range gt.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", base+i, parent, s.Req, s.Name, s.Start, s.End)
		}
		base += len(gt.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCount reports how many spans have been recorded.
func (t *Tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, gt := range t.all {
		n += len(gt.spans)
	}
	return n
}
