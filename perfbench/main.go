// Command perfbench is the repository's end-to-end multicast benchmark. It
// builds a seeded group, streams multicasts through it from one closed-loop
// sender, checks that every member received each message exactly once, and
// prints the workload's metrics; the last line of its output is one JSON
// object. With -trace 1 it instead reports per-layer metrics from spans
// recorded at the transport boundary of every member.
//
//	go run . -workload chord-tcp-64 -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// phaseLimit bounds one timed phase however slow the host is, keeping a
// whole run inside three minutes.
const phaseLimit = 100 * time.Second

// tracedMinMsgs is the fewest messages each half of a traced run sends.
const tracedMinMsgs = 20

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds of timed traffic")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from recorded spans")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, file to write the traced half's spans to as TSV")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// result is the JSON object every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// knew it.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func bench(w Workload, o options, out io.Writer) (result, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%t\n", w.Name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "# go=%s nproc=%d gomaxprocs=%d commit=%s\n",
		goruntime.Version(), goruntime.NumCPU(), goruntime.GOMAXPROCS(0), commit())
	fmt.Fprintf(out, "# members=%d payload=%dB transport=%s mode=%s sender=1 closed-loop\n",
		w.Members, w.Payload, map[bool]string{false: "mem", true: "tcp"}[w.TCP], w.Mode)

	var rec *recorder
	if o.trace {
		rec = newRecorder(w.SpanCap)
	}
	// Each set-up builds a ring of its own from a seed derived from the
	// run's, so setup_s and bytes_per_member are medians over several rings
	// rather than one ring's draw. The last set-up carries the timed traffic.
	var (
		g      *group
		in     Inputs
		setups = make([]float64, 0, w.Setups)
		heaps  = make([]float64, 0, w.Setups)
	)
	for k, seed := range setupSeeds(o.seed, w.Setups) {
		goruntime.GC()
		in = GenerateInputs(w, seed)
		start := time.Now()
		ng, err := newGroup(w, in, seed, rec)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if !w.TCP {
			if err := ng.warmup(in, w.Warmup); err != nil {
				ng.close()
				return result{}, err
			}
		}
		heaps = append(heaps, liveHeap()/float64(w.Members))
		if k < w.Setups-1 {
			ng.close()
		} else {
			g = ng
		}
	}
	defer g.close()
	fmt.Fprintf(out, "# setup_s each: %v\n# bytes_per_member each: %v\n", setups, heaps)

	seconds := time.Duration(o.seconds) * time.Second
	if !o.trace {
		p, err := g.run(in, seconds, minP95Samples, phaseLimit, nil)
		if err != nil {
			return result{}, err
		}
		return endToEndResult(w, p, median(setups), median(heaps), out)
	}

	untraced, err := g.run(in, seconds/2, tracedMinMsgs, phaseLimit/2, nil)
	if err != nil {
		return result{}, err
	}
	rec.reset()
	rec.on.Store(true)
	full := func() bool { return rec.next.Load() > int64(len(rec.buf))*3/4 }
	traced, err := g.run(in, seconds/2, tracedMinMsgs, phaseLimit/2, full)
	rec.on.Store(false)
	if err != nil {
		return result{}, err
	}
	if n := rec.dropped.Load(); n > 0 {
		return result{}, fmt.Errorf("trace buffer of %d spans dropped %d", len(rec.buf), n)
	}
	goroutines := goruntime.NumGoroutine()
	tree := linkSpans(rec.spans())
	if o.spans != "" {
		if err := writeSpans(o.spans, tree); err != nil {
			return result{}, err
		}
	}
	values := layerValues(g, untraced, traced, tree, goroutines)
	return layerResult(w, untraced, traced, values, out)
}

// liveHeap is the heap still in use after a forced collection, in bytes.
func liveHeap() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// verdictCounts folds phases into the result's attempted and failed counts.
func verdictCounts(members int, phases ...phase) (correct bool, attempted, failed int) {
	correct = true
	for _, p := range phases {
		attempted += p.sent
		failed += p.verdict.Failed
		if !p.verdict.OK(members) {
			correct = false
		}
	}
	return correct, attempted, failed
}

func endToEndResult(w Workload, p phase, setup, bytesPerMember float64, out io.Writer) (result, error) {
	d := p.deliveries()
	p50 := percentile(p.latency, 50)
	tail, tailP := 0.0, tailPercentile(len(p.latency))
	if tailP > 0 {
		tail = percentile(p.latency, tailP)
	}
	p95v, err := p95(p.latency)
	if err != nil {
		return result{}, err
	}
	values := map[string]float64{
		"setup_s":             setup,
		"mcast_p50_ms":        p50,
		"mcast_p95_ms":        p95v,
		"deliveries_per_s":    p.deliveriesPerSec(),
		"cpu_us_per_delivery": float64(p.cpuPerDelivery()) / 1e3,
		"allocs_per_delivery": perUnit(float64(p.proc.mallocs), d),
		"bytes_per_member":    bytesPerMember,
		"delivery_ratio":      p.verdict.Ratio(w.Members),
	}
	fmt.Fprintf(out, "# timed: %d multicasts, %d latency samples over %.2fs, p%g=%.3fms; %v\n",
		p.sent, len(p.latency), p.proc.wall.Seconds(), tailP, tail, p.verdict)
	for _, win := range p.windows {
		fmt.Fprintf(out, "# window %.2fs: %.0f deliveries/s, %.2f cpu us/delivery\n", win.wall.Seconds(),
			float64(win.deliveries)/win.wall.Seconds(), perUnit(float64(win.cpu)/1e3, win.deliveries))
	}
	res := result{Metrics: make(map[string]metricValue, len(endToEnd))}
	res.Correct, res.Attempted, res.Failed = verdictCounts(w.Members, p)
	for _, m := range endToEnd {
		v := values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "%-22s %14.4f %-6s %s is better\n", m.Name, v, m.Unit, m.Better)
	}
	return res, nil
}

func layerResult(w Workload, untraced, traced phase, values map[string]float64, out io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metricValue, len(perLayer))}
	res.Correct, res.Attempted, res.Failed = verdictCounts(w.Members, untraced, traced)
	fmt.Fprintf(out, "# untraced half: %d multicasts over %.2fs; %v\n", untraced.sent, untraced.proc.wall.Seconds(), untraced.verdict)
	fmt.Fprintf(out, "# traced half: %d multicasts over %.2fs; %v\n", traced.sent, traced.proc.wall.Seconds(), traced.verdict)
	for _, m := range perLayer {
		v, ok := values[m.Name]
		if !ok {
			return result{}, errors.New("no value for per-layer metric " + m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "%-44s %14.4f %-5s -> %s\n", m.Name, v, m.Unit, m.Moves)
	}
	return res, nil
}
