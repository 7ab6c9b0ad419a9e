package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"upkit/internal/coap"
	"upkit/internal/dist"
	"upkit/internal/manifest"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// stormSpec sizes the serve-storm workload.
type stormSpec struct {
	imageKiB, editBytes int
	// live is K: device base versions spread over the last live
	// releases, so every release needs live fresh diffs.
	live    int
	cadence time.Duration
	// The window is split into three phases: the latency phase offers
	// baseRate for baseShare of it; the saturation phase serves sessions
	// back to back for satShare of it; the capacity ladder gets the rest,
	// split evenly over its rungs.
	baseRate  float64
	baseShare float64
	satShare  float64
	ladder    []float64
	// satCap bounds the sessions per second the saturation phase
	// allocates room for.
	satCap float64
	// limit is the tail latency a capacity rung must stay under.
	limit time.Duration
	// lateLimit is how late the generator's timer may wake before a
	// rung counts as not keeping up.
	lateLimit time.Duration
	blockSize int
	setupReps int
	// workers serve the sessions. One: with two, which worker ended up
	// waiting on which diff during a stampede decided how long the stall
	// lasted, and the tail swung by half from run to run.
	workers int
}

var serveStorm = stormSpec{
	imageKiB: 64, editBytes: 1000, live: 8, cadence: 2 * time.Second,
	baseRate: 300, baseShare: 0.45, satShare: 0.25,
	ladder:    []float64{600, 1000, 1600, 2500},
	satCap:    20000,
	limit:     500 * time.Millisecond,
	lateLimit: 500 * time.Millisecond,
	blockSize: coap.DefaultBlockSize,
	setupReps: 9,
	workers:   1,
}

// stormOrigin is the durable origin deployment: a FileStore release log
// and a PatchStore patch log behind one update server, fronted by the
// CoAP pull server through a codec round trip per message.
type stormOrigin struct {
	spec    stormSpec
	t       *Tracer
	suite   security.Suite
	chain   *chain
	files   *updateserver.FileStore
	patches *updateserver.PatchStore
	update  *updateserver.Server
	vendor  *vendorserver.Server
	ex      coap.Exchanger
	latest  uint16
}

func buildOrigin(spec stormSpec, seed int64, dir string, t *Tracer) (*stormOrigin, error) {
	suite, err := security.SuiteByName("tinycrypt", nil)
	if err != nil {
		return nil, err
	}
	files, err := updateserver.NewFileStore(filepath.Join(dir, "state"))
	if err != nil {
		return nil, err
	}
	patches, err := updateserver.OpenPatchStore(filepath.Join(dir, "patches"), 0)
	if err != nil {
		files.Close()
		return nil, err
	}
	var serverSuite security.Suite = suite
	var store updateserver.ReleaseStore = files
	if t != nil {
		serverSuite = tracedSuite{Suite: suite, t: t}
		store = tracedStore{inner: files, t: t}
	}
	o := &stormOrigin{
		spec:    spec,
		t:       t,
		suite:   suite,
		chain:   newChain(seed, spec.imageKiB*1024, spec.editBytes, spec.live),
		files:   files,
		patches: patches,
		update: updateserver.New(serverSuite, security.MustGenerateKey(fmt.Sprintf("perfbench-%d-server", seed)),
			updateserver.WithStore(store), updateserver.WithPatchStore(patches)),
		vendor: vendorserver.New(suite, security.MustGenerateKey(fmt.Sprintf("perfbench-%d-vendor", seed))),
	}
	pull := coap.NewPullServer(o.update)
	o.ex = &coap.Loopback{Handler: traceHandler(t, originSpan, pull.Handle)}
	if t != nil {
		o.ex = tracedExchanger{inner: o.ex, t: t}
	}
	for range spec.live + 1 {
		if err := o.publishNext(); err != nil {
			o.close()
			return nil, err
		}
	}
	return o, nil
}

// publishNext builds and publishes the next release of the chain.
func (o *stormOrigin) publishNext() error {
	img, err := o.vendor.BuildImage(o.chain.release(o.latest + 1))
	if err != nil {
		return err
	}
	if err := o.update.Publish(img); err != nil {
		return fmt.Errorf("publish v%d: %w", o.latest+1, err)
	}
	o.latest++
	return nil
}

func (o *stormOrigin) close() error {
	return errors.Join(o.update.Close(), o.patches.Close(), o.files.Close())
}

// sessionOut is what one served session produced, kept for the checks
// made after the leg.
type sessionOut struct {
	tok      manifest.DeviceToken
	manifest []byte
	size     int // reassembled payload bytes
	err      error
}

// serve runs one device session against the origin: poll the latest
// version, request an update from `back` releases behind it, look up
// the payload name, and fetch every named block. It returns the
// reassembled payload in buf.
func (o *stormOrigin) serve(id, nonce uint32, back int, buf []byte, out *sessionOut) ([]byte, dist.Name, error) {
	var name dist.Name
	seq := byte(0)
	exchange := func(code coap.Code, path string, payload []byte, opts ...coap.Option) (*coap.Message, error) {
		seq++
		req := &coap.Message{Type: coap.Confirmable, Code: code, Token: []byte{byte(id >> 8), byte(id), seq}, Payload: payload}
		req.SetPath(path)
		for _, opt := range opts {
			req.AddOption(opt.Number, opt.Value)
		}
		resp, err := o.ex.Exchange(req)
		if err == nil && resp.Code != coap.CodeContent {
			err = fmt.Errorf("%s: %s", path, resp.Code)
		}
		return resp, err
	}
	query := func(format string, args ...any) coap.Option {
		return coap.Option{Number: coap.OptUriQuery, Value: fmt.Appendf(nil, format, args...)}
	}

	app := query("app=%x", appID)
	resp, err := exchange(coap.CodeGET, coap.PathVersion, nil, app)
	if err != nil {
		return buf, name, err
	}
	if len(resp.Payload) != 2 {
		return buf, name, errors.New("version: malformed response")
	}
	latest := binary.BigEndian.Uint16(resp.Payload)
	out.tok = manifest.DeviceToken{DeviceID: id, Nonce: nonce, CurrentVersion: latest - uint16(back)}
	tb, _ := out.tok.MarshalBinary() // a token always encodes
	if resp, err = exchange(coap.CodePOST, coap.PathRequest, tb, app); err != nil {
		return buf, name, err
	}
	out.manifest = resp.Payload
	if resp, err = exchange(coap.CodeGET, coap.PathName, nil, query("d=%x", id), query("n=%x", nonce)); err != nil {
		return buf, name, err
	}
	if len(resp.Payload) != dist.NameSize+4 {
		return buf, name, errors.New("name: malformed response")
	}
	copy(name[:], resp.Payload)
	total := int(binary.BigEndian.Uint32(resp.Payload[dist.NameSize:]))
	szx, err := coap.SZXForSize(o.spec.blockSize)
	if err != nil {
		return buf, name, err
	}
	b := query("b=%s", name)
	buf = buf[:0]
	for num := uint32(0); ; num++ {
		block := coap.Option{Number: coap.OptBlock2, Value: coap.Block{Num: num, SZX: szx}.Marshal()}
		resp, err := exchange(coap.CodeGET, coap.PathBlocks, nil, b, block)
		if err != nil {
			return buf, name, err
		}
		buf = append(buf, resp.Payload...)
		raw, ok := resp.Option(coap.OptBlock2)
		if !ok {
			return buf, name, fmt.Errorf("block %d: no Block2 option", num)
		}
		blk, err := coap.ParseBlock(raw)
		if err != nil {
			return buf, name, err
		}
		if !blk.More {
			break
		}
	}
	if len(buf) != total {
		return buf, name, fmt.Errorf("reassembled %d bytes, announced %d", len(buf), total)
	}
	return buf, name, nil
}

// legResult is one leg as measured.
type legResult struct {
	sessions []sessionOut
	// latency runs from when each session was due (see runLeg); wait is
	// the part of it before a worker picked the session up.
	latency   []time.Duration
	wait      []time.Duration
	lateMax   time.Duration
	publishes int
	diffs     uint64
	// done is when each session of a closed-loop leg completed, from
	// the leg's start.
	done []time.Duration
	// cpu is the process CPU time the leg took.
	cpu    time.Duration
	stats0 updateserver.CacheStats
	stats1 updateserver.CacheStats
}

// runLeg serves sessions for dur on workers goroutines. With rate > 0
// the leg is open loop: sessions fall due on a fixed schedule of rate
// per second while a release is published every cadence, and a
// session's latency runs from when it was due, so a stall shows in every
// session queued behind it. With rate 0 the leg is closed loop: workers
// serve sessions back to back until dur has passed, with no release
// landing, so it measures the serving rate between stampedes.
func (o *stormOrigin) runLeg(rate float64, dur time.Duration, workers int, rng *rand.Rand, nextID *uint32) (*legResult, error) {
	closed := rate == 0
	n := int(rate * dur.Seconds())
	interval := time.Duration(0)
	if closed {
		n = int(o.spec.satCap * dur.Seconds())
	} else {
		interval = time.Duration(float64(time.Second) / rate)
	}
	res := &legResult{
		sessions: make([]sessionOut, n),
		latency:  make([]time.Duration, n),
		wait:     make([]time.Duration, n),
	}
	if closed {
		res.done = make([]time.Duration, n)
	}
	// The version mix cycles through the bases 1..live releases behind,
	// so every stampede asks for its diffs in the same order whatever
	// the seed: a seeded order would sometimes send both workers to wait
	// on one diff and make the stall's length depend on the seed.
	nonces := make([]uint32, n)
	for i := range nonces {
		nonces[i] = rng.Uint32()
	}
	firstID := *nextID

	res.stats0 = o.update.Stats()
	cpu0 := cpuTime()
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(dur)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	var wg sync.WaitGroup
	var pubErr error
	publish := func() { // releases on the cadence
		defer wg.Done()
		for j := 1; ; j++ {
			at := start.Add(time.Duration(j) * o.spec.cadence)
			if !at.Before(end) {
				return
			}
			time.Sleep(time.Until(at))
			if err := o.publishNext(); err != nil {
				pubErr = err
				return
			}
			res.publishes++
		}
	}
	if !closed {
		wg.Add(1)
		go publish()
	}
	// The workers are the generator: each claims the next session of
	// the schedule and, if it is not yet due, sleeps until it is. A
	// session claimed after its due time waited for a busy worker, and
	// its latency runs from when it was due. A session the worker slept
	// for runs from when the worker woke: how late the timer woke it is
	// the generator's own lateness, reported as such rather than charged
	// to the origin.
	var next atomic.Int64
	late := make([]time.Duration, workers)
	lastDone := make([]time.Time, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				if closed && !time.Now().Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				from := due(i)
				slept := !closed && time.Until(from) > 0
				if slept {
					time.Sleep(time.Until(from))
				}
				picked := time.Now()
				if slept {
					late[w] = max(late[w], picked.Sub(from))
					from = picked
				}
				root := o.t.Begin("bench.session")
				out := &res.sessions[i]
				var name dist.Name
				buf, name, out.err = o.serve(firstID+uint32(i), nonces[i], i%o.spec.live+1, buf, out)
				o.t.End(root)
				lastDone[w] = time.Now()
				if closed {
					res.latency[i] = lastDone[w].Sub(picked)
					res.done[i] = lastDone[w].Sub(start)
				} else {
					res.latency[i] = lastDone[w].Sub(from)
					res.wait[i] = picked.Sub(from)
				}
				// Output check, after the session's clock stopped.
				if out.err == nil {
					out.err = checkPayload(name, buf)
					out.size = len(buf)
				}
			}
		}()
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	if pubErr != nil {
		return nil, pubErr
	}
	if closed {
		served := int(min(next.Load(), int64(n)))
		if served == n {
			return nil, fmt.Errorf("saturation leg exhausted its room for %d sessions", n)
		}
		res.sessions, res.latency, res.done, res.wait = res.sessions[:served], res.latency[:served], res.done[:served], nil
	}
	*nextID += uint32(len(res.sessions))
	for _, l := range late {
		res.lateMax = max(res.lateMax, l)
	}
	res.stats1 = o.update.Stats()
	res.diffs = res.stats1.Computations - res.stats0.Computations
	return res, nil
}

// versionPair is one (base, target) differential pair served.
type versionPair struct{ from, to uint16 }

// check verifies every session of a leg after the fact — the manifest's
// double signature and device binding, and the payload size it
// announces — and adds the (base, target) pairs served to pairs. It
// returns the number of failed sessions.
func (o *stormOrigin) check(res *legResult, workers int, pairs map[versionPair]int, log *checkLog) int {
	vendorPub, serverPub := o.vendor.PublicKey(), o.update.PublicKey()
	var (
		mu     sync.Mutex
		failed int
		wg     sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(res.sessions); i += workers {
				s := &res.sessions[i]
				err := s.err
				var m *manifest.Manifest
				if err == nil {
					m, err = checkManifest(o.suite, vendorPub, serverPub, s.manifest, s.tok)
				}
				if err == nil && int(m.PayloadSize()) != s.size {
					err = fmt.Errorf("manifest announces %d payload bytes, served %d", m.PayloadSize(), s.size)
				}
				if err == nil && m.OldVersion != s.tok.CurrentVersion {
					err = fmt.Errorf("served a full image to a device on v%d", s.tok.CurrentVersion)
				}
				mu.Lock()
				if err != nil {
					failed++
					log.fail("session %#x: %v", s.tok.DeviceID, err)
				} else {
					pairs[versionPair{m.OldVersion, m.Version}]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed
}

// runStorm runs serve-storm: set the durable origin up setupReps
// times (the last is kept), measure latency at the base rate, measure
// the saturation throughput, then climb the capacity ladder until a
// rung misses the latency limit.
func runStorm(cfg runConfig) (*outcome, error) {
	spec := serveStorm
	out := newOutcome("bench.session")
	var setups []float64
	var o *stormOrigin
	for rep := range spec.setupReps {
		var t *Tracer
		if rep == spec.setupReps-1 {
			t = cfg.tracer
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("origin-%d", rep))
		start := time.Now()
		so, err := buildOrigin(spec, cfg.seed, dir, t)
		if err != nil {
			return nil, fmt.Errorf("origin set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < spec.setupReps-1 {
			if err := so.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		o = so
	}
	defer o.close()
	runtime.GC()
	debug.FreeOSMemory()

	rng := rand.New(rand.NewSource(cfg.seed))
	nextID := uint32(0x5000_0000)
	pairs := make(map[versionPair]int) // sessions served per pair
	diffs0 := o.update.Stats().Computations
	var publishes int
	var hits, waits, disk uint64
	leg := func(rate float64, dur time.Duration) (*legResult, latencySummary, int, error) {
		res, err := o.runLeg(rate, dur, spec.workers, rng, &nextID)
		if err != nil {
			return nil, latencySummary{}, 0, err
		}
		out.attempted += len(res.sessions)
		failed := o.check(res, cfg.workers, pairs, &out.checks)
		out.failed += failed
		publishes += res.publishes
		hits += res.stats1.Hits - res.stats0.Hits
		waits += res.stats1.Waits - res.stats0.Waits
		disk += res.stats1.DiskHits - res.stats0.DiskHits
		return res, summarize(res.latency), failed, nil
	}

	window := func(share float64) time.Duration { return time.Duration(float64(cfg.seconds) * share) }
	baseDur, satDur := window(spec.baseShare), window(spec.satShare)
	rungDur := window(1-spec.baseShare-spec.satShare) / time.Duration(len(spec.ladder))

	base, lat, baseFailed, err := leg(spec.baseRate, baseDur)
	if err != nil {
		return nil, err
	}
	wait := summarize(base.wait)
	// Egress of the base leg alone, before any other leg adds to it.
	egressPerSession := float64(coap.OriginEgressCounter(o.update.Telemetry()).Value()) / 1024 / float64(len(base.sessions))
	base.sessions = nil
	heap := liveHeapMB()

	sat, satLat, _, err := leg(0, satDur)
	if err != nil {
		return nil, err
	}
	// Sessions completed per second of the saturation leg, as the median
	// over its whole seconds, so a burst of interference on the machine
	// moves it less.
	perSecond := make([]float64, int(satDur/time.Second))
	for _, d := range sat.done {
		if k := int(d / time.Second); k < len(perSecond) {
			perSecond[k]++
		}
	}
	throughput := medianFloat(perSecond)

	capacity := 0.0
	if baseFailed == 0 && passes(lat, base, spec) {
		capacity = spec.baseRate
	}
	var rungs []map[string]any
	for _, rate := range spec.ladder {
		if capacity == 0 {
			break
		}
		res, s, failed, err := leg(rate, rungDur)
		if err != nil {
			return nil, err
		}
		ok := failed == 0 && passes(s, res, spec)
		rungs = append(rungs, map[string]any{"rate": rate, "latency": s, "late_max_ms": ms(res.lateMax), "pass": ok})
		if !ok {
			break
		}
		capacity = rate
	}

	diffs := o.update.Stats().Computations - diffs0
	if diffs != uint64(len(pairs)) {
		out.checks.fail("computed %d diffs for %d distinct (base, target) pairs served", diffs, len(pairs))
	}
	// Every release that served enough sessions for the version mix to
	// cover its live bases must have had a diff from each of them. A
	// session that polled the version just before a publish and asked
	// for its update just after adds one pair from a base one release
	// older.
	bases, served := make(map[uint16]int), make(map[uint16]int)
	for p, n := range pairs {
		served[p.to] += n
		if p.to-p.from <= uint16(spec.live) {
			bases[p.to]++
		} else if p.to-p.from > uint16(spec.live)+1 {
			out.checks.fail("served a diff from v%d to v%d, outside the live window", p.from, p.to)
		}
	}
	for to, n := range bases {
		if n != spec.live && served[to] >= 4*spec.live {
			out.checks.fail("release v%d served %d sessions diffed from %d of its %d live bases", to, served[to], n, spec.live)
		}
	}

	e := out.e2e
	e["setup_s"] = medianFloat(setups)
	e["peak_rss_mb"] = peakRSSMB()
	e["heap_live_mb"] = heap
	e["success_rate"] = 1 - float64(out.failed)/float64(out.attempted)
	e["throughput_per_s"] = throughput
	e["iqm_ms"] = lat.IQMms
	e["tail_ms"] = lat.TailMs
	e["origin_egress_kb_per_op"] = egressPerSession
	// CPU per session from the saturation leg, where no generator waits
	// for due times.
	e["cpu_ms_per_op"] = ms(sat.cpu) / float64(len(sat.sessions))

	// Releases served: the one latest at the start and every publish.
	perRel := func(n uint64) float64 { return float64(n) / float64(publishes+1) }
	l := out.layers
	for _, name := range []string{
		"testbed.build_ms_per_device", "bootloader.boot_ms", "flash.erases_per_update",
		"flash.pages_per_update", "flash.kb_written_per_update", "agent.receive_self_ms",
		"proxy.hit_ratio", "proxy.fills", "simclock.update_s", "simclock.propagation_s",
		"simclock.verification_s", "simclock.loading_s",
	} {
		l[name] = 0 // no device stack and no proxy in this workload
	}
	l["updateserver.diffs"] = perRel(diffs)
	l["updateserver.patch_hits"] = perRel(hits)
	l["updateserver.patch_waits"] = perRel(waits)
	l["updateserver.disk_hits"] = perRel(disk)
	bs := o.update.Blocks().Stats()
	l["dist.blocks_bytes"] = float64(bs.Bytes)
	l["dist.blocks_entries"] = float64(bs.Entries)
	l["loadgen.late_max_ms"] = ms(base.lateMax)
	l["loadgen.wait_ms"] = wait.MeanMs
	l["loadgen.capacity_rps"] = capacity

	out.params = map[string]any{
		"base_loop": "open", "base_rate_per_s": spec.baseRate, "base_seconds": baseDur.Seconds(),
		"saturation_loop": "closed", "saturation_seconds": satDur.Seconds(), "workers": spec.workers,
		"ladder_per_s": spec.ladder, "rung_seconds": rungDur.Seconds(),
		"latency_limit_ms": ms(spec.limit), "generator_late_limit_ms": ms(spec.lateLimit),
		"live_releases": spec.live, "release_cadence_s": spec.cadence.Seconds(),
		"image_kib": spec.imageKiB, "edit_bytes": spec.editBytes, "block_bytes": spec.blockSize,
		"origin": "FileStore + PatchStore", "setup_reps": spec.setupReps,
	}
	out.details = map[string]any{
		"base_latency": lat, "base_wait": wait, "base_late_max_ms": ms(base.lateMax),
		"base_publishes": base.publishes, "base_diffs": base.diffs,
		"saturation_sessions": len(sat.sessions), "saturation_latency": satLat, "saturation_per_second": perSecond,
		"capacity_per_s": capacity, "rungs": rungs,
		"setup_s_all": setups, "publishes": publishes, "diffs": diffs, "pairs": len(pairs),
		"releases_served": len(bases),
	}
	return out, nil
}

// passes reports whether an open-loop leg met the latency limit with
// the generator keeping up (failed sessions are checked by the caller:
// they miss any limit).
func passes(s latencySummary, leg *legResult, spec stormSpec) bool {
	return s.TailMs <= ms(spec.limit) && leg.lateMax <= spec.lateLimit
}
