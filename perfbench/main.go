// Command perfbench is the repository's benchmark. It runs one named
// workload for a wall-clock budget, checks every simulated result
// against a pinned digest (or, for a seed with no pin, against an
// independent second execution), and prints one JSON result object as
// the last line of standard output: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md describes
// the workloads, the metrics and how they relate.
//
//	bash perfbench/run.sh --workload light_k32 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload light_k32 --seed 1 --update-pins
//
// The benchmark measures from outside the simulator, through public
// calls only; it changes no production code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// workDir, relative to the checkout root, holds checkpoint scratch files
// and span dumps; run.sh keeps its build there too.
const workDir = ".bench_build/perfbench"

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed       = fs.Uint64("seed", 1, "workload seed (traffic, trace and fault processes)")
		seconds    = fs.Int("seconds", 25, "wall-clock budget of the measured loop")
		trace      = fs.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced)")
		updatePins = fs.Bool("update-pins", false, "compute the workload's digest for --seed and record it in perfbench/pins.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every workload steps the serial kernel. One P keeps the garbage
	// collector on the measured thread, so its work counts in the
	// timings and its concurrency does not move peak memory: over eight
	// runs of light_k32, peak RSS varied by 0.6% at one P and by 5% at
	// two.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds = %d, want >= 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace = %d, want 0 or 1", *trace)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if *updatePins {
		d, err := w.reference(*seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s seed %d digest %s\n", *name, *seed, d)
		return writePin("perfbench/pins.json", *name, *seed, d)
	}
	declared, err := declaredMetrics("BENCHMARK.json", *trace)
	if err != nil {
		return err
	}

	b := &bench{
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		dir:      dir,
		samples:  map[string][]float64{},
		units:    map[string]string{},
		pinned:   pinFor(*name, *seed),
		workload: *name,
		cal:      newCalibrator(),
	}
	host := hostBlock(*seed)
	hostLine, err := json.Marshal(map[string]any{"workload": *name, "trace": *trace, "host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))

	if *trace == 1 {
		err = w.traced(b)
	} else {
		err = w.measure(b)
	}
	if err != nil {
		return err
	}
	res, err := b.result(declared)
	if err != nil {
		return err
	}
	if len(b.passes) > 0 {
		sort.Float64s(b.passes)
		fmt.Fprintf(os.Stderr, "perfbench: %d calibration passes, fastest %.2f ms, median %.2f ms, reference %.2f ms\n",
			len(b.passes), b.passes[0], median(b.passes), refPass.Seconds()*1e3)
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench accumulates one run's operations, failures and metric samples.
// A metric recorded several times reports the median of its samples.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	dir      string // scratch directory for checkpoint files

	// want is the digest every operation must reproduce: the pin when
	// the seed has one, otherwise the first operation's digest, which a
	// cross-check execution then confirms.
	want   string
	pinned string

	attempted, failed int
	failures          []string

	samples map[string][]float64
	units   map[string]string

	// cal times the calibration passes that scale end-to-end times to
	// the reference host speed; see calibrate.go.
	cal      *calibrator
	lastPass time.Duration
	passes   []float64 // every pass's time in ms, for the log
	pending  []pendingTime
}

// op records one operation: it fails when err is set or when digest
// disagrees with the reference.
func (b *bench) op(what, digest string, err error) {
	b.attempted++
	if err == nil && b.want == "" {
		b.want = b.pinned
		if b.want == "" {
			b.want = digest
		}
	}
	switch {
	case err != nil:
		b.fail(fmt.Sprintf("%s: %v", what, err))
	case digest != b.want:
		b.fail(fmt.Sprintf("%s: digest %s, want %s", what, digest, b.want))
	}
}

// check records one operation whose correctness is err == nil.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

func (b *bench) fail(msg string) {
	b.failed++
	b.failures = append(b.failures, msg)
}

func (b *bench) record(name, unit string, v float64) {
	b.units[name] = unit
	b.samples[name] = append(b.samples[name], v)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result reports the median of every declared metric. A declared
// metric recorded in another unit, or not recorded by a run in which
// nothing failed, is an error in the benchmark itself; after a failure
// a metric the failed operations left unmeasured reads 0.
func (b *bench) result(declared []metricDecl) (result, error) {
	r := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range declared {
		unit, ok := b.units[d.Name]
		if !ok && b.failed > 0 {
			r.Metrics[d.Name] = metric{Value: 0, Unit: d.Unit}
			continue
		}
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if unit != d.Unit {
			return result{}, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, unit, d.Unit)
		}
		r.Metrics[d.Name] = metric{Value: median(b.samples[d.Name]), Unit: unit}
	}
	return r, nil
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metrics a run prints from the benchmark
// definition: the end-to-end list untraced, the per-layer list traced.
func declaredMetrics(path string, trace int) ([]metricDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if trace == 1 {
		return def.PerLayer, nil
	}
	return def.EndToEnd, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// safely runs f, turning a panic into an error so a crashing operation
// counts as failed instead of killing the run.
func safely(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// setup times builds of a workload's simulator and traffic source as
// set-up samples. The measured loops build before every operation, so
// set-up samples are spread over the whole run, like every other
// timing. A collection first keeps one owed by the previous operation
// out of the builds, which take well under a millisecond on sim.Run
// workloads.
func (b *bench) setup(builds int, build func() error) error {
	runtime.GC()
	for i := 0; i < builds; i++ {
		start := time.Now()
		if err := safely(build); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.timing("setup_s", "s", time.Since(start).Seconds())
	}
	return nil
}

// hostBlock describes the machine a result came from, so numbers from
// different hosts are never compared as if they matched.
func hostBlock(seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
