package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are the end-to-end metrics every workload reports in an
// untraced run, with their units. One unit of work ("op") is a device
// update on the fleets and a served session on serve-storm.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"success_rate", "ratio"},
	{"throughput_per_s", "1/s"},
	{"iqm_ms", "ms"},
	{"tail_ms", "ms"},
	{"origin_egress_kb_per_op", "KB"},
	{"cpu_ms_per_op", "ms"},
}

// layerMetrics are the per-layer metrics every workload reports in a
// traced run, with their units. A layer a workload bypasses reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"testbed.build_ms_per_device", "ms"},
	{"bootloader.boot_ms", "ms"},
	{"flash.erases_per_update", "count"},
	{"flash.pages_per_update", "count"},
	{"flash.kb_written_per_update", "KB"},
	{"agent.receive_self_ms", "ms"},
	{"coap.exchange_ms", "ms"},
	{"coap.exchanges_per_update", "count"},
	{"coap.origin_ms.version", "ms"},
	{"coap.origin_ms.request", "ms"},
	{"coap.origin_ms.image", "ms"},
	{"coap.origin_ms.name", "ms"},
	{"coap.origin_ms.blocks", "ms"},
	{"proxy.handle_ms", "ms"},
	{"proxy.hit_ratio", "ratio"},
	{"proxy.fills", "count"},
	{"security.sign_ms", "ms"},
	{"security.signs", "count"},
	{"updateserver.store_ms", "ms"},
	{"updateserver.publish_ms", "ms"},
	{"updateserver.prepare_self_ms", "ms"},
	{"updateserver.diffs", "count"},
	{"updateserver.patch_hits", "count"},
	{"updateserver.patch_waits", "count"},
	{"updateserver.disk_hits", "count"},
	{"dist.blocks_bytes", "B"},
	{"dist.blocks_entries", "count"},
	{"simclock.update_s", "s"},
	{"simclock.propagation_s", "s"},
	{"simclock.verification_s", "s"},
	{"simclock.loading_s", "s"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.wait_ms", "ms"},
	{"loadgen.capacity_rps", "1/s"},
	{"trace.unattributed_ms", "ms"},
}

// traceEvery is the traced run's sampling: one op in traceEvery is
// recorded in full, which bounds the trace's memory on the busiest
// workload to a few tens of megabytes.
const traceEvery = 16

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// tracer is nil in the untraced run.
	tracer *Tracer
	// workers is the load generator's worker count (nproc).
	workers int
	// workDir is a working directory inside the checkout, removed at exit.
	workDir string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	checks            checkLog
	e2e               map[string]float64
	layers            map[string]float64
	// root names the span that encloses one op in the trace.
	root    string
	params  map[string]any
	details map[string]any
}

func newOutcome(root string) *outcome {
	return &outcome{
		root:    root,
		e2e:     make(map[string]float64),
		layers:  make(map[string]float64),
		params:  make(map[string]any),
		details: make(map[string]any),
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"fleet-static":   func(c runConfig) (*outcome, error) { return runFleet(fleetStatic, c) },
	"fleet-ab-proxy": func(c runConfig) (*outcome, error) { return runFleet(fleetABProxy, c) },
	"serve-storm":    runStorm,
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	var (
		workload = flag.String("workload", "", "workload to run: fleet-static, fleet-ab-proxy or serve-storm")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	env, err := captureEnv(root)
	if err != nil {
		return fmt.Errorf("environment: %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	workDir, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(),
		workDir: workDir,
	}
	if *trace == 1 {
		cfg.tracer = newTracer(traceEvery)
	}
	steal0, total0 := cpuTicks()
	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// CPU time the hypervisor gave other guests while this run
		// wanted it: large shares make every timing slower.
		out.details["host_cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}

	res := result{
		Correct:   out.failed == 0 && out.checks.failures == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	table, values := e2eMetrics, out.e2e
	if cfg.tracer != nil {
		traceLayers(cfg.tracer, out)
		table, values = layerMetrics, out.layers
		path := filepath.Join(build, "trace-"+*workload+".tsv")
		if err := cfg.tracer.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		out.details["trace_file"] = filepath.Join(".bench_build", filepath.Base(path))
		out.details["traced_e2e"] = out.e2e
	}
	for _, m := range table {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("workload reported no %s", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}

	// The record line carries everything needed to interpret the result:
	// environment, seed, workload parameters, output checks and detail.
	record := map[string]any{
		"environment": env,
		"workload":    *workload,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"params":      out.params,
		"checks":      map[string]any{"failures": out.checks.failures, "sample": out.checks.sample},
		"details":     out.details,
	}
	rec, err := json.Marshal(map[string]any{"perfbench_record": record})
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", rec, last)
	return err
}

// environment identifies where and on what a result was measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
	// Commit is the git commit when the checkout is a repository, and
	// the source-tree digest otherwise.
	Commit     string `json:"commit"`
	SourceTree string `json:"source_tree_sha256"`
}

// captureEnv records the environment; a result missing any field is
// refused.
func captureEnv(root string) (environment, error) {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
	tree, err := treeDigest(root)
	if err != nil {
		return env, err
	}
	env.SourceTree = tree
	env.Commit = gitCommit(root)
	if env.Commit == "" {
		env.Commit = "tree:" + tree
	}
	if env.CPUModel == "" || env.GoVersion == "" || env.GOMAXPROCS < 1 || env.NProc < 1 {
		return env, fmt.Errorf("incomplete environment %+v", env)
	}
	return env, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit returns HEAD's commit when root itself is a git checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes every regular file under root outside hidden
// directories, in path order, so a checkout without git history still
// names the exact source it measured.
func treeDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// traceLayers turns the trace into per-op layer metrics: each layer's
// self time (span minus the union of its children) per op, origin
// handlers' inclusive time per op by path, and whatever time the root
// span does not attribute to any layer.
func traceLayers(t *Tracer, out *outcome) {
	under, separate, ops := t.summary()
	per := func(ns int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(ops)
	}
	self := func(name string) float64 { return per(under[name].Self) }
	incl := func(name string) float64 { return per(under[name].Incl) }
	l := out.layers
	l["agent.receive_self_ms"] = self("agent.check_and_update")
	l["bootloader.boot_ms"] = self("bootloader.boot")
	l["coap.exchange_ms"] = self("coap.exchange")
	if ops > 0 {
		l["coap.exchanges_per_update"] = float64(under["coap.exchange"].Count) / float64(ops)
		l["security.signs"] = float64(under["security.sign"].Count) / float64(ops)
	} else {
		l["coap.exchanges_per_update"], l["security.signs"] = 0, 0
	}
	for _, p := range []string{"version", "request", "image", "name", "blocks"} {
		l["coap.origin_ms."+p] = incl("coap.origin." + p)
	}
	l["proxy.handle_ms"] = self("proxy.handle")
	l["security.sign_ms"] = self("security.sign")
	l["updateserver.store_ms"] = self("updateserver.store")
	l["updateserver.prepare_self_ms"] = self("coap.origin.request")
	l["trace.unattributed_ms"] = self(out.root)
	pub := under["updateserver.publish"]
	sep := separate["updateserver.publish"]
	pub.Count += sep.Count
	pub.Incl += sep.Incl
	l["updateserver.publish_ms"] = 0
	if pub.Count > 0 {
		l["updateserver.publish_ms"] = float64(pub.Incl) / 1e6 / float64(pub.Count)
	}

	spans := make(map[string]any)
	for name, lt := range under {
		spans[name] = map[string]any{"count": lt.Count, "self_ms_per_op": per(lt.Self), "incl_ms_per_op": per(lt.Incl)}
	}
	for name, lt := range separate {
		spans["outside-op:"+name] = map[string]any{"count": lt.Count, "incl_ms": float64(lt.Incl) / 1e6}
	}
	out.details["trace_ops_recorded"] = ops
	out.details["trace_sampling"] = fmt.Sprintf("1 in %d ops", traceEvery)
	out.details["trace_spans"] = spans
	out.details["trace_span_count"] = t.spanCount()
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far. Unlike wall
// time it does not grow while the hypervisor runs other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where unavailable).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already part of user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// liveHeapMB is the heap still reachable after a full collection: the
// state the program retains.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
