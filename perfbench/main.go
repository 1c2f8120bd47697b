// Command perfbench is hetjpeg's benchmark: one process that generates
// seeded inputs, runs one workload against the program's public entry
// points, checks every output, and prints every metric by name with its
// unit. The last line of standard output is the result as one JSON
// object.
//
//	bash perfbench/run.sh --workload gallery --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics: set-up is measured in at
// least three fresh processes (the median is reported) and the workload runs
// untraced for --seconds. --trace 1 reports the per-layer metrics: the
// workload runs untraced and then traced for --seconds each (their
// difference is the tracing overhead), then the layer probes time
// direct calls into every module over the same inputs. Spans are kept in
// memory and written to the build directory when the run ends.
//
// spec.json holds each workload's loop, client count or rate, latency
// limit and tail percentile, and says which end-to-end metric each
// per-layer metric should move, on which workload.
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
)

// Set-up is timed in at least minSetupSamples fresh processes (this one
// included), and in more, up to maxSetupSamples, while the samples so
// far sum to less than setupBudgetS seconds.
const (
	minSetupSamples = 3
	maxSetupSamples = 9
	setupBudgetS    = 2.0
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	child    string
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (gallery, transcode, service)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	fs.StringVar(&o.child, "child", "", "internal: run as a child process (setup or corpus)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

// run returns the exit code: 0 on a correct run, 1 when an output was
// wrong (the result line is still printed), 2 when the run could not be
// made (no result line).
func run(args []string, stdout io.Writer) (int, error) {
	o, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	spec, err := loadSpec()
	if err != nil {
		return 2, err
	}
	ws, err := spec.workload(o.workload)
	if err != nil {
		return 2, err
	}
	e := &env{spec: spec, ws: ws, seed: o.seed, nproc: runtime.GOMAXPROCS(0)}
	if e.plat = hetjpeg.PlatformByName(spec.Platform); e.plat == nil {
		return 2, fmt.Errorf("unknown platform %q", spec.Platform)
	}
	switch o.child {
	case "":
	case "corpus":
		items, err := buildCorpus(o.seed, o.workload)
		if err != nil {
			return 2, err
		}
		return 0, gob.NewEncoder(stdout).Encode(items)
	case "setup":
		w, err := newWorkload(e)
		if err != nil {
			return 2, err
		}
		if err := w.prepare(); err != nil {
			return 2, err
		}
		d, err := timeSetup(w)
		if err != nil {
			return 2, err
		}
		w.close()
		_, err = fmt.Fprintf(stdout, "setup_s %v\n", d.Seconds())
		return 0, err
	default:
		return 2, fmt.Errorf("unknown --child %q", o.child)
	}

	var setups []float64
	if !o.trace {
		// Children first, so nothing else runs beside them. A cheap
		// set-up gets more samples, up to maxSetupSamples.
		var total float64
		for i := 1; i < minSetupSamples || (total < setupBudgetS && i < maxSetupSamples); i++ {
			s, err := childSetup(o)
			if err != nil {
				return 2, err
			}
			setups = append(setups, s)
			total += s
		}
	}
	if e.items, err = childCorpus(o); err != nil {
		return 2, err
	}
	w, err := newWorkload(e)
	if err != nil {
		return 2, err
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return 2, err
	}
	d, err := timeSetup(w)
	if err != nil {
		return 2, err
	}
	setups = append(setups, d.Seconds())

	rep := &report{w: stdout}
	rep.note("workload %s: %s loop, %s", ws.Name, ws.Loop, loadDesc(e))
	rep.note("seed %d, corpus sha256 %s (%d images, %.2f MP)", o.seed, fingerprint(e.items), len(e.items), corpusMpix(e.items))
	rep.note("machine: %s", machine())
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		res, err := measure(w, dur, nil)
		if err != nil {
			return 2, err
		}
		if err := w.check(res); err != nil {
			return 2, err
		}
		endToEnd(rep, e, res, setups)
		return rep.finish(res)
	}

	base, err := measure(w, dur, nil)
	if err != nil {
		return 2, err
	}
	if err := w.check(base); err != nil {
		return 2, err
	}
	// The traced pass starts from the state the untraced one did (an
	// empty cache, a fresh executor), so the two compare.
	w.close()
	if err := w.setup(); err != nil {
		return 2, err
	}
	tr := newTracer()
	traced, err := measure(w, dur, tr)
	if err != nil {
		return 2, err
	}
	if err := w.check(traced); err != nil {
		return 2, err
	}
	base.mismatches += traced.mismatches
	if err := perLayer(rep, e, w, dur, base, traced, tr); err != nil {
		return 2, err
	}
	if dir, err := buildDir(); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := tr.WriteFile(path); err != nil {
			return 2, err
		}
		rep.note("spans: %d written to %s", len(tr.Spans()), path)
	}
	return rep.finish(base)
}

func loadDesc(e *env) string {
	if e.ws.Loop == "open" {
		return fmt.Sprintf("%.0f req/s Poisson over at most %d connections, limit %.0f ms", e.ws.RatePerS, e.ws.clients(), e.ws.LimitMs)
	}
	return fmt.Sprintf("%d caller(s), Workers=%d, limit %.0f ms", e.ws.clients(), e.nproc, e.ws.LimitMs)
}

func corpusMpix(items []imagegen.Item) float64 {
	var t float64
	for _, it := range items {
		t += mpix(it.W, it.H)
	}
	return t
}

// buildDir is where the run writes: the build directory run.sh names.
func buildDir() (string, error) {
	dir := os.Getenv("PERFBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// child re-invokes this binary for one child task.
func child(o options, task string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--child", task)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", task, err)
	}
	return out.Bytes(), nil
}

// childSetup times set-up in a fresh process, where nothing the program
// caches per process (the fitted model, pools, the runtime's heap) is
// warm yet.
func childSetup(o options) (float64, error) {
	out, err := child(o, "setup")
	if err != nil {
		return 0, err
	}
	var s float64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "setup_s %g", &s); err != nil {
		return 0, fmt.Errorf("setup child printed %q: %w", out, err)
	}
	return s, nil
}

// childCorpus generates the corpus in a child process, so rendering and
// encoding the inputs never count in this process's peak RSS.
func childCorpus(o options) ([]imagegen.Item, error) {
	out, err := child(o, "corpus")
	if err != nil {
		return nil, err
	}
	var items []imagegen.Item
	if err := gob.NewDecoder(bytes.NewReader(out)).Decode(&items); err != nil {
		return nil, fmt.Errorf("corpus child: %w", err)
	}
	return items, nil
}

func timeSetup(w workload) (time.Duration, error) {
	t0 := time.Now()
	err := w.setup()
	return time.Since(t0), err
}

// report collects the human-readable lines and the metrics of the
// result line.
type report struct {
	w       io.Writer
	metrics map[string]metricOut
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

func (r *report) metric(name, unit string, v float64, detail string) {
	if r.metrics == nil {
		r.metrics = map[string]metricOut{}
	}
	r.metrics[name] = metricOut{Value: v, Unit: unit}
	if detail != "" {
		detail = "  (" + detail + ")"
	}
	fmt.Fprintf(r.w, "%-40s %14.6g %-8s%s\n", name, v, unit, detail)
}

func (r *report) finish(res *passResult) (int, error) {
	attempted, failed := res.counts()
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.mismatches == 0, attempted, failed, r.metrics}
	data, err := json.Marshal(line)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(r.w, "%s\n", data)
	if res.mismatches > 0 {
		return 1, fmt.Errorf("%d outputs failed the correctness check", res.mismatches)
	}
	return 0, nil
}
