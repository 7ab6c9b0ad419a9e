package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"upkit/internal/bootloader"
	"upkit/internal/coap"
	"upkit/internal/fleet"
	"upkit/internal/platform"
	"upkit/internal/proxy"
	"upkit/internal/security"
	"upkit/internal/testbed"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// fleetSpec sizes a fleet workload.
type fleetSpec struct {
	name string
	mode bootloader.Mode
	// proxy puts one caching CoAP proxy in front of the origin and
	// switches the devices to the named-block transfer.
	proxy     bool
	devices   int
	imageKiB  int
	editBytes int
	// detReleases is the fixed prefix of releases the deterministic
	// figures (egress, simulated time, flash work) are averaged over, so
	// they do not depend on how many releases fit in the window.
	detReleases int
	setupReps   int
}

var (
	fleetStatic = fleetSpec{
		name: "fleet-static", mode: bootloader.ModeStatic,
		devices: 128, imageKiB: 32, editBytes: 1000, detReleases: 8, setupReps: 5,
	}
	fleetABProxy = fleetSpec{
		name: "fleet-ab-proxy", mode: bootloader.ModeAB, proxy: true,
		devices: 128, imageKiB: 32, editBytes: 1000, detReleases: 8, setupReps: 5,
	}
)

// fleetEnv is one built fleet: shared vendor and update server, the
// optional proxy, and the devices.
type fleetEnv struct {
	t      *Tracer
	chain  *chain
	vendor *vendorserver.Server
	update *updateserver.Server
	proxy  *proxy.Cache
	devs   []*benchDevice
	// build is the wall time spent constructing the devices' beds.
	build time.Duration
}

// benchDevice adapts one testbed deployment to the campaign engine and
// records what its last update cost.
type benchDevice struct {
	env    *fleetEnv
	bed    *testbed.Bed
	id     uint32
	origin coap.Handler // traced origin handler; nil when untraced
	rec    updateRecord
}

// updateRecord is one device update as measured: wall time, simulated
// device time by phase, and flash work.
type updateRecord struct {
	wall                       time.Duration
	sim, verification, loading time.Duration
	flash                      flashWork
	boot                       bootloader.Result
	err                        error
}

type flashWork struct{ erases, pages, written int }

func flashStats(d *testbed.Bed) flashWork {
	s := d.Device.Internal.Stats()
	w := flashWork{s.SectorErases, s.PagePrograms, s.BytesWritten}
	if d.Device.External != nil {
		e := d.Device.External.Stats()
		w.erases += e.SectorErases
		w.pages += e.PagePrograms
		w.written += e.BytesWritten
	}
	return w
}

func (d *benchDevice) ID() uint32      { return d.id }
func (d *benchDevice) Version() uint16 { return d.bed.Device.RunningVersion() }

// TryUpdate runs one device update — receive over CoAP, then reboot
// into it — timing the pair and snapshotting the device's simulated
// clock and flash counters around it.
func (d *benchDevice) TryUpdate() (uint16, error) {
	t := d.env.t
	dev := d.bed.Device
	c := d.bed.PullClient()
	traceClient(t, c, d.origin)
	f0 := flashStats(d.bed)
	sim0 := dev.Clock.Now()
	ver0 := dev.Phases.Phase(bootloader.PhaseVerification)
	load0 := dev.Phases.Phase(bootloader.PhaseLoading)

	start := time.Now()
	root := t.Begin("bench.update")
	id := t.Begin("agent.check_and_update")
	staged, err := c.CheckAndUpdate()
	t.End(id)
	var res bootloader.Result
	if err == nil && !staged {
		err = errors.New("pull cycle staged nothing")
	}
	if err == nil {
		id = t.Begin("bootloader.boot")
		res, err = dev.ApplyStagedUpdate()
		t.End(id)
	}
	t.End(root)
	wall := time.Since(start)

	f1 := flashStats(d.bed)
	d.rec = updateRecord{
		wall:         wall,
		sim:          dev.Clock.Now() - sim0,
		verification: dev.Phases.Phase(bootloader.PhaseVerification) - ver0,
		loading:      dev.Phases.Phase(bootloader.PhaseLoading) - load0,
		flash:        flashWork{f1.erases - f0.erases, f1.pages - f0.pages, f1.written - f0.written},
		boot:         res,
		err:          err,
	}
	return dev.RunningVersion(), err
}

// buildFleet constructs the deployment and factory-provisions every
// device with version 1, building beds on workers goroutines.
func buildFleet(spec fleetSpec, seed int64, t *Tracer, workers int) (*fleetEnv, error) {
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		return nil, err
	}
	var serverSuite security.Suite = suite
	var store updateserver.ReleaseStore = updateserver.NewMemStore(0)
	if t != nil {
		serverSuite = tracedSuite{Suite: suite, t: t}
		store = tracedStore{inner: store, t: t}
	}
	env := &fleetEnv{
		t:      t,
		chain:  newChain(seed, spec.imageKiB*1024, spec.editBytes, 1),
		vendor: vendorserver.New(suite, security.MustGenerateKey(fmt.Sprintf("perfbench-%d-vendor", seed))),
		update: updateserver.New(serverSuite, security.MustGenerateKey(fmt.Sprintf("perfbench-%d-server", seed)),
			updateserver.WithStore(store)),
		devs: make([]*benchDevice, spec.devices),
	}
	env.vendor.SetTelemetry(env.update.Telemetry())
	img, err := env.vendor.BuildImage(env.chain.release(1))
	if err != nil {
		return nil, err
	}
	if err := env.update.Publish(img); err != nil {
		return nil, err
	}

	var shared *coap.PullServer
	var front coap.Handler
	if spec.proxy {
		shared = coap.NewPullServer(env.update)
		origin := traceHandler(t, originSpan, shared.Handle)
		env.proxy = proxy.NewCache(&coap.Loopback{Handler: origin}, proxy.CacheOptions{})
		front = traceHandler(t, func(*coap.Message) string { return "proxy.handle" }, env.proxy.Handle)
	}

	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < spec.devices; i += workers {
				id := uint32(0xB000 + i)
				bed, err := testbed.New(testbed.Options{
					Mode:         spec.mode,
					Approach:     platform.Pull,
					Differential: true,
					DeviceID:     id,
					AppID:        appID,
					Seed:         fmt.Sprintf("perfbench-%d-%d", seed, i),
					SharedVendor: env.vendor,
					SharedUpdate: env.update,
					SharedPull:   shared,
				}, env.chain.version(1))
				if err != nil {
					errs[w] = fmt.Errorf("device %d: %w", i, err)
					return
				}
				d := &benchDevice{env: env, bed: bed, id: id}
				if spec.proxy {
					bed.Distribute(front, testbed.BlockRoute{Name: "proxy", Handler: front})
				}
				if t != nil {
					d.origin = traceHandler(t, originSpan, bed.PullHandler())
				}
				env.devs[i] = d
			}
		}()
	}
	wg.Wait()
	env.build = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return env, nil
}

// releaseCounts are the program's own counters, snapshotted around one
// release's campaign.
type releaseCounts struct {
	patch               updateserver.CacheStats
	egress              uint64
	hits, misses, fills uint64
}

func (e *fleetEnv) counts() releaseCounts {
	c := releaseCounts{
		patch:  e.update.Stats(),
		egress: coap.OriginEgressCounter(e.update.Telemetry()).Value(),
	}
	if e.proxy != nil {
		s := e.proxy.Stats()
		c.hits, c.misses, c.fills = s.Hits, s.Misses, s.Fills
	}
	return c
}

// runFleet runs a fleet workload: build the fleet setupReps
// times (the last build is kept), then cycle it through successive
// releases — one closed-loop campaign of cfg.workers engine workers per
// release — until the window has passed and the deterministic prefix is
// complete. Output checks run between campaigns, outside the timed
// window.
func runFleet(spec fleetSpec, cfg runConfig) (*outcome, error) {
	out := newOutcome("bench.update")
	var setups, buildPerDev []float64
	var env *fleetEnv
	for rep := range spec.setupReps {
		var t *Tracer
		if rep == spec.setupReps-1 {
			t = cfg.tracer
		}
		env = nil
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		e, err := buildFleet(spec, cfg.seed, t, cfg.workers)
		if err != nil {
			return nil, fmt.Errorf("build fleet: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		buildPerDev = append(buildPerDev, ms(e.build)/float64(spec.devices))
		env = e
	}

	updaters := make([]fleet.Updater, len(env.devs))
	for i, d := range env.devs {
		updaters[i] = d
	}
	policy := fleet.Policy{Parallelism: cfg.workers, MaxResults: -1, MaxErrors: 16}

	var (
		lat                       []time.Duration
		window                    time.Duration
		detUpdates                int
		sim, verif, load          time.Duration
		flash                     flashWork
		detEgress                 uint64
		diffs, hits, waits, disk  uint64
		pxHits, pxMisses, pxFills uint64
		detDiffs                  uint64
		releases                  int
		perRelease                []float64 // updates per second of each release's campaign
		cpu                       time.Duration
		heap                      float64
	)
	hardStop := time.Now().Add(cfg.seconds + 120*time.Second)
	for rel := 0; ; rel++ {
		target := uint16(rel + 2)
		img, err := env.vendor.BuildImage(env.chain.release(target))
		if err != nil {
			return nil, err
		}
		if err := env.update.Publish(img); err != nil {
			return nil, fmt.Errorf("publish v%d: %w", target, err)
		}
		before := env.counts()
		camp, err := fleet.New(target, policy, updaters)
		if err != nil {
			return nil, err
		}
		start, cpu0 := time.Now(), cpuTime()
		if _, err := camp.Run(); err != nil {
			return nil, fmt.Errorf("campaign v%d: %w", target, err)
		}
		relWall := time.Since(start)
		cpu += cpuTime() - cpu0
		window += relWall
		after := env.counts()
		releases++

		// Output checks and bookkeeping, outside the timed window.
		det := rel < spec.detReleases
		updated := 0
		for _, d := range env.devs {
			out.attempted++
			r := d.rec
			if r.err != nil {
				out.failed++
				out.checks.fail("device %#x v%d: %v", d.id, target, r.err)
				continue
			}
			updated++
			lat = append(lat, r.wall)
			// Static mode moves the image into place; A/B jumps to it.
			if r.boot.Version != target || r.boot.RolledBack || r.boot.Installed != (spec.mode == bootloader.ModeStatic) {
				out.checks.fail("device %#x booted v%d (rolled back %v, installed %v), want v%d",
					d.id, r.boot.Version, r.boot.RolledBack, r.boot.Installed, target)
			}
			if v := d.bed.Device.RunningVersion(); v != target {
				out.checks.fail("device %#x runs v%d after the v%d campaign", d.id, v, target)
			}
			if det {
				detUpdates++
				sim += r.sim
				verif += r.verification
				load += r.loading
				flash.erases += r.flash.erases
				flash.pages += r.flash.pages
				flash.written += r.flash.written
			}
		}
		perRelease = append(perRelease, float64(updated)/relWall.Seconds())
		n := after.patch.Computations - before.patch.Computations
		if n != 1 {
			out.checks.fail("release v%d computed %d diffs, want 1", target, n)
		}
		diffs += n
		hits += after.patch.Hits - before.patch.Hits
		waits += after.patch.Waits - before.patch.Waits
		disk += after.patch.DiskHits - before.patch.DiskHits
		pxHits += after.hits - before.hits
		pxMisses += after.misses - before.misses
		pxFills += after.fills - before.fills
		if det {
			detEgress += after.egress - before.egress
			detDiffs += n
		}
		if rel+1 == spec.detReleases {
			// Retained state after a fixed number of releases: the
			// program keeps some state per update served, so measuring
			// at the end would let run speed move it.
			heap = liveHeapMB()
		}
		if rel+1 >= spec.detReleases && window >= cfg.seconds {
			break
		}
		if time.Now().After(hardStop) {
			return nil, fmt.Errorf("only %d releases completed in %v", releases, cfg.seconds+120*time.Second)
		}
	}

	s := summarize(lat)
	e := out.e2e
	e["setup_s"] = medianFloat(setups)
	e["peak_rss_mb"] = peakRSSMB()
	e["heap_live_mb"] = heap
	e["success_rate"] = 1 - float64(out.failed)/float64(out.attempted)
	// Updates per second as the median over releases, so a burst of
	// interference on the machine moves it less.
	e["throughput_per_s"] = medianFloat(perRelease)
	e["iqm_ms"] = s.IQMms
	e["tail_ms"] = s.TailMs
	e["origin_egress_kb_per_op"] = float64(detEgress) / 1024 / float64(max(detUpdates, 1))
	e["cpu_ms_per_op"] = ms(cpu) / float64(len(lat))

	perDet := func(d time.Duration) float64 { return d.Seconds() / float64(max(detUpdates, 1)) }
	perRel := func(n uint64) float64 { return float64(n) / float64(releases) }
	l := out.layers
	l["testbed.build_ms_per_device"] = medianFloat(buildPerDev)
	l["flash.erases_per_update"] = float64(flash.erases) / float64(max(detUpdates, 1))
	l["flash.pages_per_update"] = float64(flash.pages) / float64(max(detUpdates, 1))
	l["flash.kb_written_per_update"] = float64(flash.written) / 1024 / float64(max(detUpdates, 1))
	l["simclock.update_s"] = perDet(sim)
	l["simclock.verification_s"] = perDet(verif)
	l["simclock.loading_s"] = perDet(load)
	l["simclock.propagation_s"] = perDet(sim - verif - load)
	l["updateserver.diffs"] = perRel(diffs)
	l["updateserver.patch_hits"] = perRel(hits)
	l["updateserver.patch_waits"] = perRel(waits)
	l["updateserver.disk_hits"] = perRel(disk)
	l["proxy.fills"] = perRel(pxFills)
	l["proxy.hit_ratio"] = 0
	if pxHits+pxMisses > 0 {
		l["proxy.hit_ratio"] = float64(pxHits) / float64(pxHits+pxMisses)
	}
	bs := env.update.Blocks().Stats()
	l["dist.blocks_bytes"] = float64(bs.Bytes)
	l["dist.blocks_entries"] = float64(bs.Entries)
	l["loadgen.late_max_ms"] = 0 // closed loop: no schedule to be late for
	l["loadgen.wait_ms"] = 0
	l["loadgen.capacity_rps"] = 0

	out.params = map[string]any{
		"loop": "closed", "workers": cfg.workers, "devices": spec.devices,
		"bootloader_mode": map[bootloader.Mode]string{bootloader.ModeStatic: "static", bootloader.ModeAB: "ab"}[spec.mode],
		"topology":        map[bool]string{false: "direct /upkit/image", true: "one caching proxy, /upkit/name + /upkit/blocks"}[spec.proxy],
		"image_kib":       spec.imageKiB, "edit_bytes": spec.editBytes,
		"deterministic_prefix_releases": spec.detReleases, "setup_reps": spec.setupReps,
	}
	out.details = map[string]any{
		"releases": releases, "updates": len(lat), "window_s": window.Seconds(),
		"updates_per_s_by_release": perRelease,
		"update_latency":           s, "setup_s_all": setups,
		"deterministic": map[string]any{
			"updates":             detUpdates,
			"origin_egress_bytes": detEgress,
			"sim_update_s":        perDet(sim),
			"flash_erases":        flash.erases,
			"flash_pages":         flash.pages,
			"diffs":               detDiffs,
		},
	}
	return out, nil
}
