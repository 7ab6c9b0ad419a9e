// Command perfbench is UpKit's benchmark: one command that runs a named
// workload in its own process, checks every output, and prints every
// end-to-end metric by name with its unit, or, in a traced run, every
// per-layer metric.
//
//	python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.py builds this package from the checkout's sources into
// .bench_build/ and runs it from the checkout root. The last line of
// standard output is the result ({"correct", "attempted", "failed",
// "metrics"}); the line before it is the full record: environment (Go
// version, GOMAXPROCS, nproc, CPU model, commit or source-tree digest),
// seed, workload parameters, output checks and details such as latency
// summaries and the host's CPU steal during the run. A run whose
// environment cannot be recorded prints no result.
//
// The package is a module of its own (go.mod replaces upkit with the
// checkout's root), so the repository's `go test ./...` does not build
// it; its tests run with `cd perfbench && go test ./...`.
//
// The benchmark drives the program only through its public seams:
// testbed beds and their pull clients' exchangers, updateserver.New with
// a wrapped security.Suite and ReleaseStore, coap.PullServer.Handle,
// proxy.Cache and the program's own counters. It changes no program
// code. The program receives only generated inputs: the firmware chain
// and device nonces, which the seed generates, and serve-storm's version
// mix and arrival schedule, which are fixed.
//
// # Workloads
//
// fleet-static: 128 devices in static (swap) bootloader mode on the
// direct topology, pulling each update over a per-session /upkit/image
// transfer. Closed loop: the campaign engine dispatches each release to
// nproc workers. One fleet is cycled through successive releases (32 KiB
// image, a 1000-byte edit per release) until the window has passed.
// Chosen because it is the paper's default configuration and the
// bootloader swap's flash erase/program loops dominate it.
//
// fleet-ab-proxy: the same fleet and release cycle in A/B mode
// (Configuration A) behind one caching CoAP proxy, with the named-block
// transfer (/upkit/name, then /upkit/blocks from the proxy). Closed loop,
// nproc workers. Chosen because it uses the same layers differently: the
// bootloader jumps instead of swapping, flash is written only during
// reception, blocks come from the proxy cache, and device verification,
// server signing and the CoAP/proxy exchange dominate.
//
// serve-storm: the origin alone, as the durable deployment (FileStore
// release log and PatchStore patch log), serving a 64 KiB image with a
// 1000-byte edit per release. Each session is one device:
// GET /upkit/version, POST /upkit/request, GET /upkit/name, then every
// /upkit/blocks block, each message marshalled and unmarshalled as the
// UDP front end does. A release is published every 2 s; device base
// versions are spread over the last 8 releases, so every release
// triggers a stampede of 8 fresh diffs. Three phases: open loop at 300
// sessions/s on a fixed schedule (latency, timed from when each session
// was due), closed-loop saturation with no release landing (throughput
// between stampedes), and an open-loop capacity ladder of 600, 1000,
// 1600 and 2500 sessions/s climbed until a rung's tail latency exceeds
// 500 ms or the generator wakes more than 500 ms late. One worker
// serves the sessions: with two, which worker ended up waiting on which
// diff during a stampede decided how long the stall lasted, and the
// tail swung by half from run to run. Chosen because it is the
// operator's path: bsdiff, signing, the session table and durable-store
// writes beside reads do the work, and no device stack runs.
//
// # End-to-end metrics
//
// Every workload reports all of them. An op is one device update
// (receive plus reboot) on the fleets and one served session on
// serve-storm.
//
//   - setup_s: median over several set-ups in the run of building the
//     deployment (fleet beds with flash fill and factory provisioning;
//     the durable origin with its first releases published).
//   - peak_rss_mb: the process's high-water resident set.
//   - heap_live_mb: heap reachable after a full collection, taken after
//     a fixed amount of work (on the fleets after the first 8 releases,
//     on serve-storm after the latency phase): the state the program
//     retains.
//   - success_rate: updates or sessions that completed and passed every
//     output check, over those attempted (the error rate is one minus
//     it; the result line's failed and attempted give the counts).
//   - throughput_per_s: fleets, updates per second as the median over
//     releases of one release's campaign; serve-storm, sessions per
//     second in the saturation phase as the median over its seconds.
//     Release stampedes show in serve-storm's tail_ms, not here.
//   - iqm_ms and tail_ms: the interquartile mean (the mean of the middle
//     half of the samples) and the highest percentile with at least ten
//     samples beyond it of one update's wall time on the fleets, and of
//     a session's latency from when it was due in serve-storm's latency
//     phase. The record also gives the median, the percentile chosen and
//     the sample count. The interquartile mean stands in for the median
//     because a shared virtual machine can switch between two speeds
//     within a run: update times then come out bimodal, and their median
//     jumps from one mode to the other between runs.
//   - origin_egress_kb_per_op: response payload bytes the origin sent
//     per op, over the first 8 releases on the fleets and over the
//     latency phase on serve-storm. On the fleets it is exact for a seed.
//   - cpu_ms_per_op: process CPU time per op during the measured
//     campaigns (fleets) or the saturation phase (serve-storm).
//
// # Per-layer metrics
//
// The traced run records spans around each seam (name, start, end,
// parent and one request ID per update or session), writes them to
// .bench_build/trace-<workload>.tsv and reports each layer's self time
// (its span minus the union of its children) per op. Time the spans do
// not attribute to a layer is reported as trace.unattributed_ms. Its
// end-to-end figures are in the record as traced_e2e; set against an
// untraced run of the same seed they give the tracing overhead. A layer
// a workload bypasses reports 0. Deterministic counts are per op, per
// release, or over the first 8 releases, so they do not depend on how
// many releases fit in the window; a pure CPU optimisation must leave
// the fleets' simclock.* and flash.* figures and egress exactly
// unchanged.
//
// Which end-to-end metric each layer should move, and on which
// workload:
//
//	bootloader.boot_ms, flash.erases_per_update, flash.pages_per_update,
//	flash.kb_written_per_update
//	    → throughput_per_s, iqm_ms on fleet-static; barely on
//	      fleet-ab-proxy; absent from serve-storm
//	testbed.build_ms_per_device
//	    → setup_s, peak_rss_mb on both fleets
//	agent.receive_self_ms (pull cycle minus its exchanges: verify,
//	LZSS, bspatch, flash writes during reception)
//	    → iqm_ms on fleet-ab-proxy
//	coap.exchange_ms, coap.exchanges_per_update,
//	coap.origin_ms.{version,request,image,name,blocks}
//	    → iqm_ms on fleet-ab-proxy; iqm_ms, heap_live_mb on serve-storm
//	      (the session table lives here)
//	proxy.handle_ms, proxy.hit_ratio, proxy.fills
//	    → throughput_per_s, origin_egress_kb_per_op on fleet-ab-proxy;
//	      bypassed elsewhere
//	security.sign_ms, security.signs
//	    → iqm_ms, throughput_per_s on serve-storm; ECDSA signing is the
//	      paper's floor: report it, do not target it
//	updateserver.store_ms, updateserver.publish_ms
//	    → tail_ms, setup_s on serve-storm
//	updateserver.prepare_self_ms, updateserver.diffs,
//	updateserver.patch_hits, updateserver.patch_waits,
//	updateserver.disk_hits
//	    → tail_ms on serve-storm and on both fleets
//	dist.blocks_bytes, dist.blocks_entries
//	    → heap_live_mb on serve-storm
//	simclock.{update,propagation,verification,loading}_s
//	    → the modelled Fig. 8a device time per update on both fleets
//	loadgen.late_max_ms, loadgen.wait_ms
//	    → validity of serve-storm's open loop, not a target
//	loadgen.capacity_rps
//	    → the highest ladder rung on serve-storm whose tail stays under
//	      500 ms
//
// updateserver.prepare_self_ms is the origin's /upkit/request handler
// time minus release-store and signing time, so patch computation and
// waits land in it; on the fleets, the devices that wait on each
// release's one diff set tail_ms.
//
// The BENCH_5, BENCH_6, BENCH_9 and BENCH_10 files at the repository
// root are historical: each is one leg run once with its own schema and
// worker count, and none is comparable with this benchmark.
package main
