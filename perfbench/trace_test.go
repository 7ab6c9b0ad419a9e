package main

import (
	"sync"
	"testing"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{30, 60},  // overlaps the next child
		{10, 40},  // union with the above: [10, 60)
		{20, 25},  // nested inside both
		{90, 120}, // clipped to the parent: [90, 100)
		{150, 160},
	}
	// Union covered: 50 + 10 = 60. Summing the children instead would
	// count 30 + 30 + 5 + 10 = 75.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTracerNestsByGoroutine(t *testing.T) {
	tr := newTracer(1)
	root := tr.Begin("bench.update")
	child := tr.Begin("coap.exchange")
	leaf := tr.Begin("coap.origin.request")
	tr.End(leaf)
	tr.End(child)

	// A span on another goroutine is not a child of this one.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.End(tr.Begin("updateserver.publish"))
	}()
	wg.Wait()
	tr.End(root)

	spans := tr.goTrace().spans
	if p := spans[child].Parent; p != root {
		t.Errorf("exchange parent = %d, want %d", p, root)
	}
	if p := spans[leaf].Parent; p != child {
		t.Errorf("origin parent = %d, want %d", p, child)
	}
	if spans[leaf].Req != spans[root].Req {
		t.Errorf("origin span has request %d, want %d", spans[leaf].Req, spans[root].Req)
	}

	under, separate, ops := tr.summary()
	if ops != 1 || under["coap.exchange"].Count != 1 || separate["updateserver.publish"].Count != 1 {
		t.Errorf("summary: ops %d, under %v, separate %v", ops, under, separate)
	}
	// Self times partition the root's duration.
	var sum int64
	for _, lt := range under {
		sum += lt.Self
	}
	if total := under["bench.update"].Incl; sum != total {
		t.Errorf("self times sum to %d, root lasted %d", sum, total)
	}
}

func TestTracerSamplesOpsWithTheirChildren(t *testing.T) {
	const n, every = 1600, 16
	tr := newTracer(every)
	for range n {
		root := tr.Begin("bench.session")
		tr.End(tr.Begin("coap.exchange"))
		tr.End(root)
	}
	tr.End(tr.Begin("updateserver.publish")) // not an op: always recorded
	under, separate, ops := tr.summary()
	if ops < n/every/2 || ops > n/every*2 {
		t.Errorf("recorded %d of %d ops, want about %d", ops, n, n/every)
	}
	if under["coap.exchange"].Count != ops || separate["updateserver.publish"].Count != 1 {
		t.Errorf("summary: ops %d, under %v, separate %v", ops, under, separate)
	}
	if got := tr.spanCount(); got != 2*ops+1 {
		t.Errorf("recorded %d spans, want %d", got, 2*ops+1)
	}
	// A stride would record every 16th op; the hash must not line up
	// with a period of 16.
	aligned := 0
	for i := int64(1); i <= n; i += every {
		if tr.sampled(i) {
			aligned++
		}
	}
	if aligned == n/every {
		t.Error("sampling lines up with a period of 16")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	tr.End(tr.Begin("x"))
	if n := tr.spanCount(); n != 0 {
		t.Errorf("nil tracer counted %d spans", n)
	}
}
