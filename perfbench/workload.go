package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// env is what every workload is built from.
type env struct {
	spec  *benchSpec
	ws    *workloadSpec
	plat  *hetjpeg.Platform
	seed  int64
	nproc int
	// items is the seeded corpus (nil in a set-up child, which needs
	// only the warm-up inputs).
	items []imagegen.Item
}

// workload is one traffic mix over the program's public entry points.
type workload interface {
	// prepare computes, outside timing, what the checks compare against.
	prepare() error
	// setup makes the program ready to serve the workload (model fit,
	// construction, warm-up); it is what setup_s times.
	setup() error
	// pass runs the workload for d, recording spans into tr when it is
	// not nil.
	pass(d time.Duration, tr *Tracer) (*passResult, error)
	// check runs the correctness checks that need no timing after a
	// pass, marking the operations whose outputs were wrong.
	check(res *passResult) error
	// probes says what the layer probes should run.
	probes() probeSet
	close()
}

func newWorkload(e *env) (workload, error) {
	switch e.ws.Name {
	case "gallery":
		return &gallery{env: e}, nil
	case "transcode":
		return &transcodeLoad{env: e}, nil
	case "service":
		return &service{env: e}, nil
	}
	return nil, fmt.Errorf("no workload %q", e.ws.Name)
}

// opRecord is one operation of a pass: a gallery page, a transcode item
// or an HTTP request.
type opRecord struct {
	// latMs runs from when the operation was due (open loop) or sent
	// (closed loop) to its completion.
	latMs float64
	// lagMs is how late the operation was sent compared with when it was
	// due: the open loop's schedule, or the closed loop caller's
	// previous completion.
	lagMs float64
	mpix  float64
	// ok: answered successfully with a correct output.
	ok      bool
	refused bool
	// key identifies the output for the checks after the pass (-1: none).
	key int
	// kind names the operation's class (a transcode flavor, a request
	// kind and its cache outcome) for the per-kind latency breakdown.
	kind string
}

type passResult struct {
	ops        []opRecord
	elapsed    time.Duration
	mismatches int
	// virtSeq and virtRun sum the sequential-mode virtual makespans and
	// those of the schedule that ran, over the same decodes.
	virtSeq, virtRun float64
	allocBytes       uint64
	gcPauseNs        uint64
	mallocs          uint64
	// outputs keeps the first transcode output per key for the checks
	// after the pass.
	outputs map[int][]byte
	// requests holds the service's per-request replies.
	requests []reqResult
	// notes are printed with the result (input fingerprints).
	notes []string
	// layer holds per-layer numbers the pass itself measured.
	layer layerVals
}

type layerVal struct {
	v      float64
	detail string
}

// layerVals are per-layer values by metric name.
type layerVals map[string]layerVal

func (l layerVals) set(name string, v float64, format string, args ...any) {
	l[name] = layerVal{v: v, detail: fmt.Sprintf(format, args...)}
}

func (r *passResult) set(name string, v float64, format string, args ...any) {
	if r.layer == nil {
		r.layer = layerVals{}
	}
	r.layer.set(name, v, format, args...)
}

func (r *passResult) counts() (attempted, failed int) {
	for _, op := range r.ops {
		if !op.ok {
			failed++
		}
	}
	return len(r.ops), failed
}

func (r *passResult) okLatencies() []float64 {
	var ms []float64
	for _, op := range r.ops {
		if op.ok {
			ms = append(ms, op.latMs)
		}
	}
	return ms
}

func (r *passResult) okMpix() float64 {
	var t float64
	for _, op := range r.ops {
		if op.ok {
			t += op.mpix
		}
	}
	return t
}

// fail marks every operation with the given output key as wrong.
func (r *passResult) fail(key int) {
	for i := range r.ops {
		if r.ops[i].key == key && r.ops[i].ok {
			r.ops[i].ok = false
			r.mismatches++
		}
	}
}

// measure runs one pass and records the runtime's allocation and GC
// deltas across it.
func measure(w workload, d time.Duration, tr *Tracer) (*passResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := w.pass(d, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.mallocs = after.Mallocs - before.Mallocs
	res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// warmItems are the small fixed inputs set-up warms the program with;
// they never overlap a seeded corpus.
func warmItems() ([]imagegen.Item, error) {
	var items []imagegen.Item
	for i, sub := range []jfif.Subsampling{jfif.Sub420, jfif.Sub444} {
		img := imagegen.Generate(imagegen.Scene{Seed: -1 - int64(i), Detail: 0.5}, 320, 240)
		data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: inputQuality, Subsampling: sub})
		img.Release()
		if err != nil {
			return nil, err
		}
		items = append(items, imagegen.Item{Name: fmt.Sprintf("warm-%d", i), Data: data, W: 320, H: 240, Sub: sub})
	}
	return items, nil
}

// cycleRand is the seeded source of cycle k's visiting order: every
// input once per cycle, so each seed's mix is the same.
func cycleRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
}

// seqVirtualNs is the sequential-mode virtual makespan of one decode:
// the paper's baseline schedule, from the analytic cost plan.
func seqVirtualNs(plat *hetjpeg.Platform, data []byte, scale hetjpeg.Scale) (float64, error) {
	res, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: hetjpeg.ModeSequential, Spec: plat, Scale: scale, VirtualOnly: true})
	if err != nil {
		return 0, err
	}
	res.Release()
	return res.TotalNs, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// opTiming is an operation's latency and lag. An open loop times from
// when the operation was due, so a stall also counts against the
// requests queued behind it; a closed loop times from the send, and its
// operation was due when the caller's previous one completed.
func opTiming(open bool, due, sent, done time.Time) (latMs, lagMs float64) {
	if open {
		return ms(done.Sub(due)), ms(sent.Sub(due))
	}
	return ms(done.Sub(sent)), ms(sent.Sub(due))
}
