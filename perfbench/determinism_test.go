package main

import (
	"reflect"
	"testing"
	"time"
)

// A traced and an untraced run of one seed must agree exactly on every
// deterministic count — diffs, origin egress, flash erases and pages,
// and simulated update time — which shows the seam wrappers the traced
// run installs change no behaviour.
func TestTracingChangesNoDeterministicCount(t *testing.T) {
	for _, spec := range []fleetSpec{fleetStatic, fleetABProxy} {
		spec.devices, spec.detReleases, spec.setupReps = 6, 3, 1
		t.Run(spec.name, func(t *testing.T) {
			run := func(tr *Tracer) *outcome {
				cfg := runConfig{seed: 5, seconds: time.Millisecond, tracer: tr, workers: 2, workDir: t.TempDir()}
				out, err := runFleet(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.checks.failures != 0 {
					t.Fatalf("run failed %d updates, checks %v", out.failed, out.checks.sample)
				}
				return out
			}
			plain := run(nil)
			tr := newTracer(1)
			traced := run(tr)
			want, got := plain.details["deterministic"], traced.details["deterministic"]
			if !reflect.DeepEqual(want, got) {
				t.Errorf("deterministic counts differ:\nuntraced %v\ntraced   %v", want, got)
			}
			if plain.e2e["origin_egress_kb_per_op"] != traced.e2e["origin_egress_kb_per_op"] {
				t.Errorf("egress per update: untraced %v, traced %v",
					plain.e2e["origin_egress_kb_per_op"], traced.e2e["origin_egress_kb_per_op"])
			}
			traceLayers(tr, traced)
			for _, m := range layerMetrics {
				if _, ok := traced.layers[m.name]; !ok {
					t.Errorf("traced run reported no %s", m.name)
				}
			}
			if n := traced.layers["updateserver.diffs"]; n != 1 {
				t.Errorf("diffs per release = %v, want 1", n)
			}
			if traced.layers["agent.receive_self_ms"] <= 0 || traced.layers["coap.exchanges_per_update"] <= 0 {
				t.Errorf("device layers not traced: %v", traced.layers)
			}
		})
	}
}

func TestStormReportsEveryMetric(t *testing.T) {
	tr := newTracer(1)
	cfg := runConfig{seed: 2, seconds: time.Second, tracer: tr, workers: 2, workDir: t.TempDir()}
	out, err := runStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.checks.failures != 0 {
		t.Fatalf("storm failed %d sessions, checks %v", out.failed, out.checks.sample)
	}
	traceLayers(tr, out)
	for _, m := range e2eMetrics {
		if _, ok := out.e2e[m.name]; !ok {
			t.Errorf("no end-to-end %s", m.name)
		}
	}
	for _, m := range layerMetrics {
		if _, ok := out.layers[m.name]; !ok {
			t.Errorf("no per-layer %s", m.name)
		}
	}
	if out.layers["security.signs"] != 1 {
		t.Errorf("signs per session = %v, want 1", out.layers["security.signs"])
	}
}
