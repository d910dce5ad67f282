// Command camchurn evaluates the live runtime under membership churn,
// sweeping the maintenance budget (slow -> fast churn) for both CAM systems
// and printing delivery ratio, ring health and repair effort. It is the
// dynamic counterpart of cmd/camfigs and probes the paper's closing claim
// that the two systems favor different churn regimes.
//
// Usage:
//
//	camchurn [-initial 48] [-events 150] [-join 0.5] [-crash 0.5]
//	         [-cap-lo 4] [-cap-hi 10] [-seed 1]
//	         [-transport mem|tcp]
//	         [-debug-addr host:port]
//	camchurn -live 1000,10000,100000 [-mode cam-chord] [-shards 0]
//	         [-live-groups 1] [-ramp bulk|join] [-churn 0] [-probes 0]
//	         [-transport mem|tcp] [-json BENCH_scale.json]
//	         [-min-ring 0.99] [-min-delivery 0.95]
//	camchurn -scenarios
//	camchurn -scenario <name> [-mode cam-chord|cam-koorde|both] [-seed 1]
//	         [-record log.ndjson]
//	camchurn -replay log.ndjson
//
// -debug-addr serves the live observability endpoint while the sweep runs:
// /debug/camcast/stats (JSON metric snapshots across all runs so far),
// /debug/camcast/events (streaming NDJSON event tail), and net/http/pprof.
//
// -scenario runs one named composite failure from the scenario library
// instead of the budget sweep, checking the run against the scenario's
// delivery expectations. -record captures the run's full input schedule to
// a replay log (one cluster per log, so it needs a single -mode). -replay
// re-executes a recorded log twice in the deterministic replay engine and
// requires both replays to agree exactly.
//
// -live runs the scale sweep instead: for each member count it hosts the
// whole membership in this process with maintenance driven by the sharded
// scheduler (no per-member goroutines; virtual time on the mem transport),
// ramps up, churns with probe multicasts, and reports exact join/leave/
// multicast latency percentiles plus goroutine and bytes-per-member
// footprints. -json writes the results as BENCH_scale.json cells for
// scripts/bench_gate.py; -min-ring / -min-delivery turn the run into a
// pass/fail smoke check for CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"camcast/internal/churnsim"
	"camcast/internal/obsv"
	"camcast/internal/replay"
	"camcast/internal/runtime"
	"camcast/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "camchurn:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("camchurn", flag.ContinueOnError)
	var (
		initial = fs.Int("initial", 48, "members before churn starts")
		events  = fs.Int("events", 150, "membership events")
		join    = fs.Float64("join", 0.5, "fraction of events that are joins")
		crash   = fs.Float64("crash", 0.5, "fraction of departures that are crashes")
		capLo   = fs.Int("cap-lo", 4, "lowest member capacity")
		capHi   = fs.Int("cap-hi", 10, "highest member capacity")
		seed    = fs.Int64("seed", 1, "RNG seed")
		trans   = fs.String("transport", "mem", "member transport: mem (in-process simulated network) or tcp (one loopback listener per member)")
		debug   = fs.String("debug-addr", "", "serve the live debug endpoint (JSON stats, event tail, pprof) on this host:port")

		scen     = fs.String("scenario", "", "run this named failure scenario instead of the budget sweep (see -scenarios)")
		listScen = fs.Bool("scenarios", false, "list the failure-scenario library and exit")
		mode     = fs.String("mode", "both", "protocol mode for -scenario and -live: cam-chord, cam-koorde or both")
		record   = fs.String("record", "", "with -scenario: write the run's replay log to this file (needs a single -mode)")
		replayIn = fs.String("replay", "", "replay a recorded log twice and require the replays to agree; ignores other flags")

		live       = fs.String("live", "", "run the live scale sweep at these comma-separated member counts (e.g. 1000,10000,100000) instead of the budget sweep")
		liveGroups = fs.Int("live-groups", 1, "with -live: partition the membership across this many tenant flows (independent overlays multiplexed over one transport)")
		shards     = fs.Int("shards", 0, "with -live: scheduler shard count (0 = GOMAXPROCS)")
		ramp       = fs.String("ramp", "", "with -live: initial-membership construction, bulk (sorted-array install, default) or join (incremental)")
		churn      = fs.Int("churn", 0, "with -live: membership events after the ramp (0 = scaled default)")
		probes     = fs.Int("probes", 0, "with -live: measurement multicasts across churn (0 = default 20)")
		jsonOut    = fs.String("json", "", "with -live: write results as BENCH_scale.json cells to this file")
		minRing    = fs.Float64("min-ring", 0, "with -live: fail unless final ring correctness reaches this fraction")
		minDlv     = fs.Float64("min-delivery", 0, "with -live: fail unless mean probe delivery reaches this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *listScen:
		return runListScenarios(out)
	case *replayIn != "":
		return runReplay(*replayIn, out)
	case *scen != "":
		return runScenario(*scen, *mode, *seed, *record, out)
	case *record != "":
		return fmt.Errorf("-record needs -scenario")
	case *live != "":
		modes, err := scenarioModes(*mode)
		if err != nil {
			return err
		}
		return runLiveSweep(liveSweepConfig{
			spec: *live, modes: modes, transport: *trans, shards: *shards,
			groups: *liveGroups, ramp: *ramp, churn: *churn, probes: *probes,
			capLo: *capLo, capHi: *capHi, seed: *seed,
			jsonOut: *jsonOut, minRing: *minRing, minDelivery: *minDlv,
		}, out)
	}

	// One bus and registry span the whole sweep, so the debug endpoint
	// shows the aggregate picture as runs accumulate.
	var (
		bus *obsv.Bus
		reg *obsv.Registry
	)
	if *debug != "" {
		bus = obsv.NewBus()
		reg = obsv.NewRegistry()
		srv, addr, err := obsv.Debug{Registry: reg, Bus: bus}.ListenAndServe(*debug)
		if err != nil {
			return fmt.Errorf("-debug-addr %s: %w", *debug, err)
		}
		defer srv.Close()
		fmt.Fprintf(out, "debug endpoint: http://%s/debug/camcast/stats\n", addr)
	}

	fmt.Fprintf(out, "churn: %d initial members, %d events (%.0f%% joins, %.0f%% of departures crash), capacities [%d..%d], transport %s\n\n",
		*initial, *events, *join*100, *crash*100, *capLo, *capHi, *trans)

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tmaintenance budget\tmean delivery\tmin delivery\tring correct\tjoin ms p50/p95/p99\tleave ms p50/p95/p99\tmcast ms p50/p95/p99\tlookup hops p50/p95/p99\ttable faults\tduplicates\tretries\trepaired\tlost")
	for _, mode := range []runtime.Mode{runtime.ModeCAMChord, runtime.ModeCAMKoorde} {
		for _, budget := range []int{4, 2, 1, 0} {
			// Latency percentiles come from the run's obsv histograms:
			// each row gets a fresh registry so the quantiles are per-run,
			// unless a debug endpoint spans the sweep (then the shared
			// registry accumulates and the columns read cumulatively).
			rowReg := reg
			if rowReg == nil {
				rowReg = obsv.NewRegistry()
			}
			res, err := churnsim.Run(churnsim.Config{
				Mode:              mode,
				Initial:           *initial,
				Events:            *events,
				JoinFrac:          *join,
				FailFrac:          *crash,
				CapacityLo:        *capLo,
				CapacityHi:        *capHi,
				Seed:              *seed,
				MaintenanceBudget: budget,
				Transport:         *trans,
				Bus:               bus,
				Metrics:           rowReg,
			})
			if err != nil {
				return fmt.Errorf("%v budget %d: %w", mode, budget, err)
			}
			label := fmt.Sprintf("%d rounds/event", budget)
			if budget == 0 {
				label = "none (fastest churn)"
			}
			hists := rowReg.Snapshot().Histograms
			fmt.Fprintf(w, "%v\t%s\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
				mode, label, res.MeanDelivery*100, res.MinDelivery*100,
				res.RingCorrect*100,
				quantileTriple(hists[obsv.MetricJoinTime]),
				quantileTriple(hists[obsv.MetricLeaveTime]),
				quantileTriple(hists[obsv.MetricMulticastTime]),
				hopsTriple(hists[obsv.MetricLookupHops]),
				res.TableFaults, res.Duplicates,
				res.Retries, res.SegmentsRepaired, res.SegmentsLost)
		}
	}
	return w.Flush()
}

// quantileTriple renders a latency histogram as "p50/p95/p99" in
// milliseconds. Histogram quantiles are bucket upper bounds; observations
// past the last bucket render as ">5e3".
func quantileTriple(h obsv.HistogramSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	one := func(q float64) string {
		v := h.Quantile(q)
		if math.IsInf(v, 1) {
			if len(h.Bounds) == 0 {
				return "inf"
			}
			return fmt.Sprintf(">%.3g", h.Bounds[len(h.Bounds)-1]*1e3)
		}
		return fmt.Sprintf("%.3g", v*1e3)
	}
	return one(0.50) + "/" + one(0.95) + "/" + one(0.99)
}

// hopsTriple renders the lookup hop-count histogram as "p50/p95/p99" hops
// (counts, not milliseconds). Overflow observations clamp to the last
// bucket bound, which sits past the runtime's hop budget.
func hopsTriple(h obsv.HistogramSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f/%.0f",
		h.BoundedQuantile(0.50), h.BoundedQuantile(0.95), h.BoundedQuantile(0.99))
}

// liveSweepConfig carries the -live flags into runLiveSweep.
type liveSweepConfig struct {
	spec         string
	modes        []runtime.Mode
	transport    string
	shards       int
	groups       int
	ramp         string
	churn        int
	probes       int
	capLo, capHi int
	seed         int64
	jsonOut      string
	minRing      float64
	minDelivery  float64
}

// scaleDoc is the BENCH_scale.json shape consumed by scripts/bench_gate.py
// ("scale" format): one cell per transport/mode/members combination.
type scaleDoc struct {
	Format string                         `json:"format"`
	Cells  map[string]churnsim.LiveResult `json:"cells"`
}

// runLiveSweep hosts each requested membership size in-process with
// scheduler-driven maintenance and reports latency percentiles and
// footprints, optionally writing BENCH_scale.json cells and enforcing
// ring/delivery floors.
func runLiveSweep(cfg liveSweepConfig, out io.Writer) error {
	var sizes []int
	for _, part := range strings.Split(cfg.spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return fmt.Errorf("-live %q: want comma-separated member counts >= 2", cfg.spec)
		}
		sizes = append(sizes, n)
	}

	doc := scaleDoc{Format: "scale", Cells: make(map[string]churnsim.LiveResult)}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tmembers\tjoin ms p50/p95/p99\tleave ms p50/p95/p99\tmcast ms p50/p95/p99\tlookup hops p50/p95/p99\tmean delivery\tmin delivery\tring correct\tgoroutines\tB/member\tramp s\tchurn s")
	var failures []string
	for _, mode := range cfg.modes {
		for _, members := range sizes {
			res, err := churnsim.RunLive(churnsim.LiveConfig{
				Mode:        mode,
				Members:     members,
				Transport:   cfg.transport,
				Groups:      cfg.groups,
				Shards:      cfg.shards,
				Ramp:        cfg.ramp,
				ChurnEvents: cfg.churn,
				Probes:      cfg.probes,
				CapacityLo:  cfg.capLo,
				CapacityHi:  cfg.capHi,
				Seed:        cfg.seed,
				// A fresh registry per cell keeps the lookup-hops quantiles
				// (and any future histogram-derived cell fields) per-run.
				Metrics: obsv.NewRegistry(),
				Log:     os.Stderr,
			})
			if err != nil {
				return fmt.Errorf("%v live %d: %w", mode, members, err)
			}
			key := fmt.Sprintf("%s/%s/%d", cfg.transport, mode, members)
			if cfg.groups > 1 {
				// Multi-tenant cells carry the group count so they never
				// collide with (or gate against) the single-overlay cells.
				key += fmt.Sprintf("/g%d", cfg.groups)
			}
			doc.Cells[key] = res
			fmt.Fprintf(w, "%v\t%d\t%.3g/%.3g/%.3g\t%.3g/%.3g/%.3g\t%.3g/%.3g/%.3g\t%.0f/%.0f/%.0f\t%.1f%%\t%.1f%%\t%.1f%%\t%d\t%.0f\t%.0f\t%.0f\n",
				mode, members,
				res.JoinP50Ms, res.JoinP95Ms, res.JoinP99Ms,
				res.LeaveP50Ms, res.LeaveP95Ms, res.LeaveP99Ms,
				res.McastP50Ms, res.McastP95Ms, res.McastP99Ms,
				res.LookupHopsP50, res.LookupHopsP95, res.LookupHopsP99,
				res.MeanDelivery*100, res.MinDelivery*100, res.RingCorrect*100,
				res.Goroutines, res.BytesPerMember, res.RampSeconds, res.ChurnSeconds)
			if cfg.minRing > 0 && res.RingCorrect < cfg.minRing {
				failures = append(failures, fmt.Sprintf("%v/%d: ring correctness %.3f < %.3f", mode, members, res.RingCorrect, cfg.minRing))
			}
			if cfg.minDelivery > 0 && res.MeanDelivery < cfg.minDelivery {
				failures = append(failures, fmt.Sprintf("%v/%d: mean delivery %.3f < %.3f", mode, members, res.MeanDelivery, cfg.minDelivery))
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if cfg.jsonOut != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %d cells to %s\n", len(doc.Cells), cfg.jsonOut)
	}
	if len(failures) > 0 {
		return fmt.Errorf("live sweep floors violated:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// runListScenarios prints the failure-scenario library.
func runListScenarios(out io.Writer) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tmin mean\tmin last\tdescription")
	for _, s := range scenario.All() {
		fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t%s\n", s.Name, s.MinMean*100, s.MinLast*100, s.Description)
	}
	return w.Flush()
}

// scenarioModes resolves the -mode flag for -scenario runs.
func scenarioModes(mode string) ([]runtime.Mode, error) {
	switch mode {
	case "both":
		return []runtime.Mode{runtime.ModeCAMChord, runtime.ModeCAMKoorde}, nil
	case runtime.ModeCAMChord.String():
		return []runtime.Mode{runtime.ModeCAMChord}, nil
	case runtime.ModeCAMKoorde.String():
		return []runtime.Mode{runtime.ModeCAMKoorde}, nil
	}
	return nil, fmt.Errorf("-mode %q: want cam-chord, cam-koorde or both", mode)
}

// runScenario executes one named scenario live, optionally recording its
// replay log, and reports the measured delivery against the scenario's
// expectations. The command fails if any mode misses them.
func runScenario(name, mode string, seed int64, record string, out io.Writer) error {
	s, err := scenario.Get(name)
	if err != nil {
		return err
	}
	modes, err := scenarioModes(mode)
	if err != nil {
		return err
	}
	var rec io.Writer
	if record != "" {
		if len(modes) != 1 {
			return fmt.Errorf("-record captures one cluster per log: pick -mode cam-chord or cam-koorde")
		}
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = f
	}

	fmt.Fprintf(out, "scenario %s (seed %d): %s\n\n", s.Name, seed, s.Description)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tmean delivery\tmin delivery\tpost-recovery\tring correct\tcheck")
	var failed error
	for _, m := range modes {
		res, err := scenario.Run(s, m, seed, rec)
		verdict := "pass"
		if err != nil {
			verdict = err.Error()
			failed = fmt.Errorf("scenario %s did not meet its expectations", s.Name)
		}
		last := 0.0
		if len(res.DeliveryRatios) > 0 {
			last = res.DeliveryRatios[len(res.DeliveryRatios)-1]
		}
		fmt.Fprintf(w, "%v\t%.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			m, res.MeanDelivery*100, res.MinDelivery*100, last*100, res.RingCorrect*100, verdict)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if record != "" {
		fmt.Fprintf(out, "\nreplay log: %s\n", record)
	}
	return failed
}

// runReplay re-executes a recorded log twice through the deterministic
// replay engine, requires both replays to agree exactly, and summarizes
// what the replayed cluster did.
func runReplay(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := replay.ReadLog(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	label := log.Header.Scenario
	if label == "" {
		label = "(unlabeled)"
	}
	fmt.Fprintf(out, "replaying %s: %s, %d-bit space, seed %d, scenario %s, %d records\n",
		path, log.Header.Mode, log.Header.Bits, log.Header.Seed, label, len(log.Records))

	a, err := replay.Run(log)
	if err != nil {
		return fmt.Errorf("first replay: %w", err)
	}
	b, err := replay.Run(log)
	if err != nil {
		return fmt.Errorf("second replay: %w", err)
	}
	if d := replay.Compare(a, b); d != nil {
		fmt.Fprintf(out, "\n%s\n", d)
		return fmt.Errorf("replays diverged: %s", d.Reason)
	}

	total := 0
	for _, members := range a.Deliveries {
		total += len(members)
	}
	fmt.Fprintf(out, "deterministic: two replays agree on %d multicasts, %d deliveries, %d trace events\n",
		len(a.MsgIDs), total, len(a.Trace))
	fmt.Fprintf(out, "counters: %s\n", a.Counters)
	return nil
}
