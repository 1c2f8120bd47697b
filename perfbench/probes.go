package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/transcode"
)

// parseReps is how many times the codec probe parses each input.
const parseReps = 50

// probeJob is one input at the scale the workload decodes it at.
type probeJob struct {
	item  int
	scale jpegcodec.Scale
}

// probeSet is what the layer probes run for one workload.
type probeSet struct {
	// jobs are the workload's inputs at its decode scales.
	jobs []probeJob
	// batch is the workload's executor configuration.
	batch hetjpeg.BatchOptions
	// model is the performance model; nil fits the quick model.
	model *perfmodel.Model
	// flavors are transcoded one-shot when the workload's pass did not
	// measure the transcode layer itself.
	flavors []flavor
}

// prober times direct calls into the program's modules, one span per
// call, and counts the work each call did.
type prober struct {
	tr    *Tracer
	op    int64
	units map[string]float64
	out   layerVals
	// mismatches counts probe outputs that disagreed with each other.
	mismatches int
}

func (p *prober) call(name string, parent int64, units float64, f func() error) error {
	s := p.tr.Begin(name, p.op, parent)
	err := f()
	s.End()
	p.units[name] += units
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// runProbes times every layer over the workload's corpus and returns
// the per-layer values; the pass's own values, where it measured a
// layer, take precedence over these. d is the workload's pass length.
func runProbes(e *env, w workload, d time.Duration, tr *Tracer, have layerVals) (layerVals, int, error) {
	ps := w.probes()
	p := &prober{tr: tr, op: 1 << 40, units: map[string]float64{}, out: layerVals{}}
	model := ps.model
	if model == nil {
		var err error
		if model, err = perfmodel.TrainQuick(e.plat); err != nil {
			return nil, 0, err
		}
	}
	if err := p.codec(e); err != nil {
		return nil, 0, err
	}
	if err := p.modes(e, model); err != nil {
		return nil, 0, err
	}
	if err := p.batch(e, ps, have); err != nil {
		return nil, 0, err
	}
	if _, ok := have["transcode.fastpath_ratio"]; !ok {
		if err := p.transcode(e, ps.flavors); err != nil {
			return nil, 0, err
		}
	}
	if _, ok := have["imaged.server_ms_p50"]; !ok {
		if err := p.service(e, d/2); err != nil {
			return nil, 0, err
		}
	}

	self := layerTimes(tr.Spans())
	per := func(name string, scale float64) float64 { return ratio(float64(self[name])*scale, p.units[name]) }
	p.out.set("jfif.parse_us", per("jfif.Parse", 1e-3), "%.0f calls", p.units["jfif.Parse"])
	p.out.set("jpegcodec.prepare_us_per_mpix", per("jpegcodec.PrepareDecode", 1e-3), "over %.2f MP", p.units["jpegcodec.PrepareDecode"])
	for _, c := range []struct{ metric, span string }{
		{"jpegcodec.entropy_ns_per_mcu", "jpegcodec.DecodeAll.baseline"},
		{"jpegcodec.entropy_progressive_ns_per_mcu", "jpegcodec.DecodeAll.progressive"},
		{"jpegcodec.entropy_restart_ns_per_mcu", "jpegcodec.DecodeAll.restart"},
		{"jpegcodec.back_ns_per_mcu", "jpegcodec.ParallelPhaseScalar"},
	} {
		p.out.set(c.metric, per(c.span, 1), "over %.0f MCUs", p.units[c.span])
	}
	p.out.set("jpegcodec.idct_ns_per_block", per("jpegcodec.IDCTRange", 1), "over %.0f blocks", p.units["jpegcodec.IDCTRange"])
	p.out.set("jpegcodec.idct_scaled_ns_per_block", per("jpegcodec.IDCTRange.1/4", 1), "over %.0f blocks at 1/4", p.units["jpegcodec.IDCTRange.1/4"])
	p.out.set("jpegcodec.color_ns_per_pixel", per("jpegcodec.ColorConvertRange", 1), "over %.0f pixels", p.units["jpegcodec.ColorConvertRange"])
	for _, c := range []string{"baseline", "optimized", "progressive"} {
		span := "jpegcodec.Encode." + c
		p.out.set("jpegcodec.encode_ns_per_mcu."+c, per(span, 1), "q75 4:4:4 over %.0f MCUs", p.units[span])
	}
	for _, m := range hetjpeg.AllModes() {
		span := "core.Decode." + m.String()
		p.out.set("core.decode_ms_per_mpix."+m.String(), per(span, 1e-6), "wall, over %.2f MP", p.units[span])
	}
	return p.out, p.mismatches, nil
}

// codec times the decoder's stages one at a time over every corpus
// image, and the encoder's three entropy coders over the decoded
// pixels.
func (p *prober) codec(e *env) error {
	for _, it := range e.items {
		p.op++
		root := p.tr.Begin("probe.codec", p.op, 0)
		err := p.codecOne(it.Data, it.W, it.H, it.Progressive, it.RestartInterval > 0, root.ID())
		root.End()
		if err != nil {
			return fmt.Errorf("codec probe %s: %w", it.Name, err)
		}
	}
	return nil
}

func (p *prober) codecOne(data []byte, w, h int, progressive, restart bool, parent int64) error {
	// One parse is microseconds: time a run of them.
	if err := p.call("jfif.Parse", parent, parseReps, func() error {
		for i := 0; i < parseReps; i++ {
			if _, err := jfif.Parse(data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var f *jpegcodec.Frame
	var ed *jpegcodec.EntropyDecoder
	if err := p.call("jpegcodec.PrepareDecode", parent, mpix(w, h), func() (err error) {
		f, ed, err = jpegcodec.PrepareDecode(data)
		return err
	}); err != nil {
		return err
	}
	defer f.Release()
	class := "baseline"
	switch {
	case progressive:
		class = "progressive"
	case restart:
		class = "restart"
	}
	mcus := float64(f.MCUsPerRow * f.MCURows)
	if err := p.call("jpegcodec.DecodeAll."+class, parent, mcus, ed.DecodeAll); err != nil {
		return err
	}
	_ = p.call("jpegcodec.IDCTRange", parent, float64(f.TotalBlocks()), func() error {
		for c := range f.Planes {
			jpegcodec.IDCTRange(f, c, 0, f.MCURows)
		}
		return nil
	})
	staged := jpegcodec.NewRGBImage(f.OutW, f.OutH)
	defer staged.Release()
	r0, r1 := f.PixelRows(0, f.MCURows)
	_ = p.call("jpegcodec.ColorConvertRange", parent, float64(w*h), func() error {
		jpegcodec.ColorConvertRange(f, r0, r1, staged)
		return nil
	})
	fused := jpegcodec.NewRGBImage(f.OutW, f.OutH)
	defer fused.Release()
	_ = p.call("jpegcodec.ParallelPhaseScalar", parent, mcus, func() error {
		jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, fused)
		return nil
	})
	if !bytes.Equal(staged.Pix, fused.Pix) {
		p.mismatches++
	}

	fs, eds, err := jpegcodec.PrepareDecodeScaled(data, jpegcodec.Scale4)
	if err != nil {
		return err
	}
	defer fs.Release()
	if err := eds.DecodeAll(); err != nil {
		return err
	}
	_ = p.call("jpegcodec.IDCTRange.1/4", parent, float64(fs.TotalBlocks()), func() error {
		for c := range fs.Planes {
			jpegcodec.IDCTRange(fs, c, 0, fs.MCURows)
		}
		return nil
	})

	outMCUs := float64(((w + 7) / 8) * ((h + 7) / 8)) // 4:4:4 output
	for _, c := range []struct {
		name string
		opts jpegcodec.EncodeOptions
	}{
		{"baseline", jpegcodec.EncodeOptions{Quality: 75}},
		{"optimized", jpegcodec.EncodeOptions{Quality: 75, OptimizeHuffman: true}},
		{"progressive", jpegcodec.EncodeOptions{Quality: 75, Progressive: true}},
	} {
		if err := p.call("jpegcodec.Encode."+c.name, parent, outMCUs, func() error {
			_, err := jpegcodec.Encode(fused, c.opts)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// modes decodes every corpus image one at a time in each of the six
// modes, recording wall and virtual time, PPS's partitioning and the
// model's Huffman-time prediction error.
func (p *prober) modes(e *env, model *perfmodel.Model) error {
	virt := map[string]float64{}
	var mp, gpuRows, rows, repart, images, huffErr float64
	for _, it := range e.items {
		p.op++
		root := p.tr.Begin("probe.modes", p.op, 0)
		im, err := jfif.Parse(it.Data)
		if err != nil {
			return err
		}
		for _, m := range hetjpeg.AllModes() {
			var res *hetjpeg.Result
			if err := p.call("core.Decode."+m.String(), root.ID(), mpix(it.W, it.H), func() (err error) {
				res, err = hetjpeg.Decode(it.Data, hetjpeg.Options{Mode: m, Spec: e.plat, Model: model})
				return err
			}); err != nil {
				return err
			}
			virt[m.String()] += res.TotalNs
			if m == hetjpeg.ModePPS {
				gpuRows += float64(res.Stats.GPUMCURows)
				rows += float64(res.Stats.MCURows)
				if res.Stats.Repartitioned {
					repart++
				}
				pred := model.ForSub(it.Sub).THuff(float64(it.W), float64(it.H), im.EntropyDensity())
				huffErr += math.Abs(pred-res.HuffNs) / res.HuffNs
			}
			res.Release()
		}
		root.End()
		mp += mpix(it.W, it.H)
		images++
	}
	for _, m := range hetjpeg.AllModes() {
		p.out.set("core.virtual_ms_per_mpix."+m.String(), virt[m.String()]/1e6/mp, "virtual makespan over %.2f MP", mp)
	}
	p.out.set("partition.gpu_row_share", ratio(gpuRows, rows), "%.0f of %.0f MCU rows on the device under PPS", gpuRows, rows)
	p.out.set("partition.repartition_ratio", ratio(repart, images), "%.0f of %.0f PPS decodes re-partitioned", repart, images)
	p.out.set("perfmodel.huff_error", ratio(huffErr, images), "mean |THuff-HuffNs|/HuffNs over %.0f images", images)
	return nil
}

// batch feeds the workload's jobs through a fresh executor with its
// configuration: how long each image waits from Submit to its result,
// and the executor's mean occupancy.
func (p *prober) batch(e *env, ps probeSet, have layerVals) error {
	ex, err := hetjpeg.NewBatchExecutor(ps.batch)
	if err != nil {
		return err
	}
	p.op++
	root := p.tr.Begin("probe.batch", p.op, 0)
	var mu sync.Mutex
	spans := make([]*Open, len(ps.jobs))
	var inflight []float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				inflight = append(inflight, float64(ex.QueueStats().InFlight))
			}
		}
	}()
	submitErr := make(chan error, 1)
	go func() {
		defer ex.Close()
		for i, j := range ps.jobs {
			mu.Lock()
			spans[i] = p.tr.Begin("batch.result_wait", p.op, root.ID())
			mu.Unlock()
			if err := ex.SubmitScaled(context.Background(), i, e.items[j.item].Data, j.scale); err != nil {
				submitErr <- err
				return
			}
		}
		submitErr <- nil
	}()
	var waits []float64
	failed := 0
	for ir := range ex.Results() {
		mu.Lock()
		s := spans[ir.Index]
		mu.Unlock()
		s.End()
		waits = append(waits, float64(s.s.End-s.s.Start)/1e6)
		if ir.Res == nil {
			failed++
			continue
		}
		ir.Res.Release()
	}
	close(stop)
	<-sampled
	root.End()
	if err := <-submitErr; err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("batch probe: %d images failed", failed)
	}
	p.out.set("batch.result_wait_ms", percentile(waits, 50), "median Submit-to-result over %d images", len(waits))
	p.out.set("batch.inflight_mean", mean(inflight), "QueueStats().InFlight over %d 1 ms samples", len(inflight))
	if _, ok := have["batch.pipelining_gain"]; ok {
		return nil
	}
	var full [][]byte
	for _, j := range ps.jobs {
		if j.scale.Denominator() == 1 {
			full = append(full, e.items[j.item].Data)
		}
	}
	res, err := hetjpeg.DecodeBatch(full, ps.batch)
	if err != nil {
		return err
	}
	for _, ir := range res.Images {
		if ir.Res != nil {
			ir.Res.Release()
		}
	}
	p.out.set("batch.pipelining_gain", res.Gain(), "SerialNs/PipelinedNs of one DecodeBatch over %d full-size images", len(full))
	return nil
}

// transcode runs one-shot transcodes of every (image, flavor) pair.
func (p *prober) transcode(e *env, flavors []flavor) error {
	var st xcodeStats
	var bits, pix, psnrSum float64
	for _, k := range transcodeKeys(e.items, flavors) {
		in, fl := e.items[k.item], flavors[k.flavor]
		p.op++
		var out *transcode.Result
		if err := p.call("transcode.Transcode."+fl.name, 0, mpix(in.W, in.H), func() (err error) {
			out, err = transcode.Transcode(in.Data, fl.opts)
			return err
		}); err != nil {
			return err
		}
		st.items++
		if out.FastPath {
			st.fast++
		}
		st.decodeNs += out.DecodeNs
		st.encodeNs += out.EncodeNs
		want, err := jpegcodec.DecodeScalarScaled(in.Data, fl.opts.Scale)
		if err != nil {
			return err
		}
		got, err := jpegcodec.DecodeScalar(out.Data)
		if err != nil {
			return err
		}
		psnr, err := psnrRGB(want, got)
		want.Release()
		got.Release()
		if err != nil {
			return err
		}
		bits += float64(8 * len(out.Data))
		pix += float64(out.W * out.H)
		psnrSum += psnr
	}
	tmp := &passResult{}
	st.record(tmp)
	for k, v := range tmp.layer {
		p.out[k] = layerVal{v: v.v, detail: v.detail + ", one-shot probe"}
	}
	p.out.set("transcode.output_bpp", ratio(bits, pix), "one-shot probe, %.0f output pixels", pix)
	p.out.set("transcode.psnr_db", ratio(psnrSum, float64(st.items)), "one-shot probe, mean over %d outputs", st.items)
	return nil
}

// service runs the service workload's open loop for d, traced, over the
// first serviceSlots images of this workload's corpus (the slots the
// service catalog is built from): what HTTP, admission and the cache
// add under the service's own traffic, for a workload that does not
// run them itself.
func (p *prober) service(e *env, d time.Duration) error {
	ws, err := e.spec.workload("service")
	if err != nil {
		return err
	}
	se := *e
	se.ws, se.items = ws, e.items[:serviceSlots]
	s := &service{env: &se}
	if err := s.prepare(); err != nil {
		return err
	}
	if err := s.setup(); err != nil {
		return err
	}
	defer s.close()
	res, err := s.pass(d, p.tr)
	if err != nil {
		return err
	}
	if err := s.check(res); err != nil {
		return err
	}
	p.mismatches += res.mismatches
	for _, k := range []string{"rescache.hit_ratio", "rescache.wait_ratio", "rescache.evictions", "rescache.resident_mb",
		"imaged.server_ms_p50", "imaged.http_overhead_ms_p50", "imaged.shed_ratio", "imaged.degraded_ratio"} {
		v := res.layer[k]
		p.out[k] = layerVal{v: v.v, detail: v.detail + ", service probe"}
	}
	return nil
}
