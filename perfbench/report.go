package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// endToEnd prints the end-to-end metrics of an untraced pass.
func endToEnd(rep *report, e *env, res *passResult, setups []float64) {
	for _, n := range res.notes {
		rep.note("%s", n)
	}
	attempted, failed := res.counts()
	refused := 0
	for _, op := range res.ops {
		if op.refused {
			refused++
		}
	}
	for _, k := range byKind(res.ops) {
		rep.note("%s", k)
	}
	rep.note("failed_ratio %.6g (%d failed or refused of %d attempted; %d refused, %d wrong outputs)",
		ratio(float64(failed), float64(attempted)), failed, attempted, refused, res.mismatches)
	lat := summarize(res.okLatencies(), e.ws.TailPercentile)
	within := 0
	for _, op := range res.ops {
		if op.ok && op.latMs <= e.ws.LimitMs {
			within++
		}
	}
	secs := res.elapsed.Seconds()
	rep.metric("setup_s", "s", median(setups), fmt.Sprintf("median of %d fresh processes: %s", len(setups), floats(setups)))
	rep.metric("throughput_mpix_s", "Mpix/s", ratio(res.okMpix(), secs), fmt.Sprintf("%.2f input MP over %.3f s", res.okMpix(), secs))
	rep.metric("latency_p50_ms", "ms", lat.P50, fmt.Sprintf("%d samples", lat.N))
	rep.metric("latency_tail_ms", "ms", lat.Tail, fmt.Sprintf("p%g, %d samples, %d beyond", lat.TailP, lat.N, beyond(lat.N, lat.TailP)))
	rep.metric("within_slo_ratio", "ratio", ratio(float64(within), float64(attempted)), fmt.Sprintf("%d of %d within %.0f ms", within, attempted, e.ws.LimitMs))
	rep.metric("virtual_speedup", "x", ratio(res.virtSeq, res.virtRun), fmt.Sprintf("%.1f ms sequential / %.1f ms as run, virtual", res.virtSeq/1e6, res.virtRun/1e6))
	rep.metric("peak_rss_mb", "MB", peakRSSMB(), "VmHWM")
	if !lat.TailOK {
		rep.note("WARNING: fewer than %d samples beyond even the median; run longer", minBeyond)
	}
}

// perLayer prints the per-layer metrics of a traced run: the layer
// probes, the traced pass's own layer figures, the runtime deltas of
// the untraced pass and the tracing overhead.
func perLayer(rep *report, e *env, w workload, d time.Duration, base, traced *passResult, tr *Tracer) error {
	for _, n := range traced.notes {
		rep.note("%s", n)
	}
	vals, mismatches, err := runProbes(e, w, d, tr, traced.layer)
	if err != nil {
		return err
	}
	base.mismatches += mismatches
	for k, v := range traced.layer {
		vals[k] = v
	}
	mp := base.okMpix()
	vals.set("runtime.alloc_mb_per_mpix", ratio(float64(base.allocBytes)/(1<<20), mp), "%.0f MB allocated, %d mallocs over %.2f MP (untraced pass)", float64(base.allocBytes)/(1<<20), base.mallocs, mp)
	vals.set("runtime.gc_pause_ms", float64(base.gcPauseNs)/1e6, "total over the %.1f s untraced pass", base.elapsed.Seconds())
	lags := make([]float64, 0, len(base.ops))
	for _, op := range base.ops {
		lags = append(lags, op.lagMs)
	}
	lag := summarize(lags, e.ws.TailPercentile)
	vals.set("client.lag_ms_tail", lag.Tail, "p%g of send minus due over %d operations (untraced pass)", lag.TailP, lag.N)
	b, t := summarize(base.okLatencies(), 50), summarize(traced.okLatencies(), 50)
	vals.set("trace.overhead_ms_p50", t.P50-b.P50, "traced p50 %.3f ms minus untraced %.3f ms", t.P50, b.P50)
	bt, tt := ratio(base.okMpix(), base.elapsed.Seconds()), ratio(traced.okMpix(), traced.elapsed.Seconds())
	vals.set("trace.overhead_throughput_ratio", ratio(tt, bt), "traced %.3f Mpix/s over untraced %.3f Mpix/s", tt, bt)

	for _, m := range e.spec.PerLayer {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		rep.metric(m.Name, m.Unit, v.v, v.detail)
	}
	return nil
}

// byKind summarizes the latency of each kind of operation.
func byKind(ops []opRecord) []string {
	lat := map[string][]float64{}
	for _, op := range ops {
		if op.ok && op.kind != "" {
			lat[op.kind] = append(lat[op.kind], op.latMs)
		}
	}
	var out []string
	for k, xs := range lat {
		out = append(out, fmt.Sprintf("latency %-24s n=%-5d p50=%8.2fms p90=%8.2fms", k, len(xs), percentile(xs, 50), percentile(xs, 90)))
	}
	sort.Strings(out)
	return out
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// machine describes where the run happened: the result is only
// comparable with runs on the same machine. A checkout without version
// control has no commit; the source digest identifies the code then.
func machine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s source-sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, sourceDigest("."))
}

// sourceDigest hashes the Go sources and module files under root, in
// walk order, skipping hidden directories (the build directory among
// them).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
