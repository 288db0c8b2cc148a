// Command perfbench is the repository's outside-in benchmark. It drives
// the shipped cmd/admitd binary (default flags) over loopback HTTP and
// exp.RunCampaign in-process, checks every output it gets back, and
// prints the end-to-end metrics named in BENCHMARK.json (--trace 0) or
// the per-layer metrics of a separate traced pass (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	admit-large     closed loop, 2 connections, 32 tenants at ≈30 live light tasks
//	campaign-fleet  grids of five fleet scenarios × 3 fault scales, 48 tasks per cell
//	campaign-sim    grids of 3 server scenarios × 3 fault scales, 4000 tasks per cell
//
// Build and run it through run.sh from the repository root; FINDINGS.md
// records the first traced run and how the workloads were sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"rtoffload/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	admitd   string // path of the built cmd/admitd binary
	work     string // scratch directory for checkpoints and span dumps
	spec     string // BENCHMARK.json, for the self-test's name check
}

// workloadFunc runs one workload in one mode.
type workloadFunc func(o *options) (*result, error)

type workload struct {
	name            string
	endToEnd, trace workloadFunc
}

var workloads = []workload{
	{"admit-large", runAdmitE2E, runAdmitTraced},
	{"campaign-fleet", runCampaignE2E, runCampaignTraced},
	{"campaign-sim", runCampaignE2E, runCampaignTraced},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	fs.StringVar(&o.admitd, "admitd", "", "path of the cmd/admitd binary")
	fs.StringVar(&o.work, "work", "", "scratch directory")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark spec, checked by -selftest")
	selftest := fs.Bool("selftest", false, "run every workload briefly and check metric names and planted faults")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.work == "" || o.admitd == "" {
		fmt.Fprintln(stderr, "perfbench: -admitd and -work are required (use run.sh)")
		return 2
	}
	if *selftest {
		if err := selfTest(o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: selftest:", err)
			return 1
		}
		fmt.Fprintln(stdout, "selftest ok")
		return 0
	}
	if o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout, o.trace)
	if !res.correct() {
		for _, v := range res.violations {
			fmt.Fprintln(stderr, "perfbench: violation:", v)
		}
		return 1
	}
	return 0
}

// runWorkload dispatches one run and checks that it emitted exactly the
// metric set its mode promises.
func runWorkload(o *options) (*result, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		fn := w.endToEnd
		if o.trace {
			fn = w.trace
		}
		res, err := fn(o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		if err := res.complete(o.trace); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		return res, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run. Times and rates
// describe requests on the admit workloads and whole campaign grids
// (one RunCampaign call) on the campaign workloads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"slo_frac", "frac"},
	{"benefit_mean", "benefit"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by every traced run. A layer that the
// workload's path never enters reads 0.
var perLayerMetrics = []metricDef{
	{"admitd.handler_us", "us"},
	{"admitd.decode_us", "us"},
	{"admitd.service_us", "us"},
	{"admitd.encode_us", "us"},
	{"admitd.view_us", "us"},
	{"admitd.net_us", "us"},
	{"admitd.lock_lookup_us", "us"},
	{"admitd.handler.unattributed_frac", "frac"},
	{"admitd.service.unattributed_frac", "frac"},
	{"admitd.status_2xx", "count"},
	{"admitd.status_409", "count"},
	{"admitd.status_other", "count"},
	{"admitd.reject_frac", "frac"},
	{"admitd.view_bytes", "B"},
	{"core.admission_us", "us"},
	{"core.admission_noexact_us", "us"},
	{"core.exact_upgrade_us", "us"},
	{"core.improve_exact_us", "us"},
	{"core.live_tasks_mean", "count"},
	{"core.offloaded_frac", "frac"},
	{"core.repaired_total", "count"},
	{"core.exact_promotions", "count"},
	{"core.decide_ms.uniform", "ms"},
	{"core.decide_ms.hot", "ms"},
	{"core.decide_ms.skew", "ms"},
	{"core.decide_ms.degrade", "ms"},
	{"core.decide_ms.failover", "ms"},
	{"core.decide_nofleet_ms", "ms"},
	{"core.fleet_overhead_ms", "ms"},
	{"mckp.solve_us", "us"},
	{"mckp.solve_core_us", "us"},
	{"dbf.feasible_us", "us"},
	{"dbf.qpa_us", "us"},
	{"dbf.theorem3_us", "us"},
	{"sched.run_ms", "ms"},
	{"sched.run_nosink_ms", "ms"},
	{"trace.check_ms", "ms"},
	{"eventq.heap_run_ms", "ms"},
	{"eventq.wheel_run_ms", "ms"},
	{"sched.jobs_per_cell", "count"},
	{"trace.segments_per_cell", "count"},
	{"sched.miss_frac", "frac"},
	{"exp.cell_ms.p50", "ms"},
	{"exp.cell_ms.p99", "ms"},
	{"exp.parallel_eff", "frac"},
	{"exp.cell.unattributed_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// result accumulates one run's counts, metrics, and output-check
// violations.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	violations        []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violate records a failed output check; each one counts as a failed
// operation.
func (r *result) violate(format string, args ...any) {
	r.failed++
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// complete fills per-layer metrics the workload does not exercise with
// 0 and rejects a run that left an end-to-end metric unset or not finite.
func (r *result) complete(traced bool) error {
	for _, d := range defsFor(traced) {
		v, ok := r.values[d.name]
		if !ok && traced {
			r.values[d.name] = 0
			continue
		}
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON line last.
func (r *result) print(w io.Writer, traced bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defsFor(traced) {
		v := r.values[d.name]
		fmt.Fprintf(w, "metric %-34s %14.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "metric %-34s %14.6f frac\n", "fail_frac", float64(r.failed)/math.Max(1, float64(r.attempted)))
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintln(w, string(line))
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// slicedPercentiles splits time-ordered latencies into up to twenty
// equal slices of at least 500 samples each and returns the median over
// the slices of each slice's p50 and p90 (plain percentiles when there
// are fewer than 1000 samples). A host stall then moves one slice's tail,
// not the reported one. The tail is p90, not p99: on a shared VM,
// vCPU stalls of several milliseconds hit 1–3% of requests, so p99
// measured the host.
func slicedPercentiles(lats []float64) (p50, p90 float64) {
	k := min(20, max(1, len(lats)/500))
	var p50s, p90s []float64
	for i := 0; i < k; i++ {
		slice := lats[i*len(lats)/k : (i+1)*len(lats)/k]
		p50s = append(p50s, stats.Percentile(slice, 50))
		p90s = append(p90s, stats.Percentile(slice, 90))
	}
	return median(p50s), median(p90s)
}

// interquartileMean is the mean of the values between the first and
// third quartiles: robust to a few slow or stalled slices, unlike the
// mean, and continuous, unlike the median of counts.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssSampler samples a process's resident set size every 5 ms. Its
// peak is the 99th percentile of the samples: a high-water mark that a
// garbage-collection spike shorter than 1% of the window cannot move.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := rssMB(pid); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the p99 of its samples.
func (s *rssSampler) peak() (float64, error) {
	close(s.stop)
	mb := <-s.done
	if len(mb) == 0 {
		return 0, fmt.Errorf("no RSS sample")
	}
	return stats.Percentile(mb, 99), nil
}

// rssMB reads a process's resident set size from /proc/<pid>/statm.
func rssMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%s/statm", pid)
	}
	var pages float64
	if _, err := fmt.Sscan(f[1], &pages); err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// sumCheck compares a whole with the sum of its parts and reports the
// share of the whole the parts leave unexplained. A gap beyond 15% is
// flagged as an unmeasured layer.
func sumCheck(r *result, name string, whole float64, parts map[string]float64) float64 {
	sum := 0.0
	names := make([]string, 0, len(parts))
	for n, v := range parts {
		sum += v
		names = append(names, n)
	}
	sort.Strings(names)
	if whole <= 0 {
		return 0
	}
	gap := (whole - sum) / whole
	verdict := "ok"
	if math.Abs(gap) > 0.15 {
		verdict = "UNMEASURED LAYER"
	}
	r.note("sumcheck %-8s whole=%.3f parts(%s)=%.3f gap=%+.1f%% %s",
		name, whole, strings.Join(names, "+"), sum, 100*gap, verdict)
	return gap
}
