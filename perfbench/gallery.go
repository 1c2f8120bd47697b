package main

import (
	"fmt"
	"hash/maphash"
	"sort"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
)

// gallery is the paper's workload: one caller decoding seeded pages of
// images with hetjpeg.DecodeBatch (band scheduler, PPS, the quick
// model), at full scale.
type gallery struct {
	*env
	opts hetjpeg.BatchOptions
	warm []imagegen.Item

	// pages partitions the corpus into pages of nearly equal megapixels.
	pages [][]int

	hseed   maphash.Seed
	refHash []uint64  // pixels of the scalar reference decode
	seqNs   []float64 // sequential-mode virtual makespans
}

func (g *gallery) prepare() error {
	var err error
	if g.warm, err = warmItems(); err != nil {
		return err
	}
	g.pages = balancedPages(g.items, g.ws.PageImages)
	g.hseed = maphash.MakeSeed()
	for _, it := range g.items {
		ref, err := jpegcodec.DecodeScalarScaled(it.Data, jpegcodec.Scale1)
		if err != nil {
			return fmt.Errorf("gallery: reference decode of %s: %w", it.Name, err)
		}
		g.refHash = append(g.refHash, maphash.Bytes(g.hseed, ref.Pix))
		ref.Release()
		ns, err := seqVirtualNs(g.plat, it.Data, hetjpeg.Scale1)
		if err != nil {
			return err
		}
		g.seqNs = append(g.seqNs, ns)
	}
	return nil
}

func (g *gallery) setup() error {
	// The reduced-corpus model: the full Train takes minutes. It is
	// cached per process, which is why set-up is timed in fresh ones.
	model, err := perfmodel.TrainQuick(g.plat)
	if err != nil {
		return err
	}
	g.opts = hetjpeg.BatchOptions{Spec: g.plat, Model: model, Mode: hetjpeg.ModePPS, Workers: g.nproc}
	res, err := hetjpeg.DecodeBatch(datas(g.warm), g.opts)
	if err != nil {
		return err
	}
	for _, ir := range res.Images {
		if ir.Res == nil {
			return fmt.Errorf("gallery warm-up: %w", ir.Err)
		}
		ir.Res.Release()
	}
	return nil
}

// balancedPages splits the corpus into pages of per images with nearly
// equal megapixels: largest image first, each to the lightest page with
// room. Pages of equal weight keep the median page latency off the
// steps between page sizes.
func balancedPages(items []imagegen.Item, per int) [][]int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	size := func(i int) float64 { return mpix(items[i].W, items[i].H) }
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	pages := make([][]int, (len(items)+per-1)/per)
	load := make([]float64, len(pages))
	for _, i := range order {
		best := -1
		for p := range pages {
			if len(pages[p]) < per && (best < 0 || load[p] < load[best]) {
				best = p
			}
		}
		pages[best] = append(pages[best], i)
		load[best] += size(i)
	}
	return pages
}

func datas(items []imagegen.Item) [][]byte {
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = it.Data
	}
	return out
}

func (g *gallery) pass(d time.Duration, tr *Tracer) (*passResult, error) {
	res := &passResult{}
	runNs := make([]float64, len(g.items))
	var gain []float64
	start := time.Now()
	prevDone := start
	op := int64(0)
	// Whole cycles, every page once per cycle, so every pass decodes the
	// same mix.
	for cycle := 1; cycle == 1 || time.Since(start) < d; cycle++ {
		rng := cycleRand(g.seed, cycle)
		for _, p := range rng.Perm(len(g.pages)) {
			op++
			page := make([]int, 0, len(g.pages[p]))
			for _, i := range rng.Perm(len(g.pages[p])) {
				page = append(page, g.pages[p][i])
			}
			in := make([][]byte, len(page))
			rec := opRecord{ok: true, key: -1, kind: fmt.Sprintf("page %d", p)}
			for i, idx := range page {
				in[i] = g.items[idx].Data
				rec.mpix += mpix(g.items[idx].W, g.items[idx].H)
			}

			sent := time.Now()
			sp := tr.Begin("gallery.page", op, 0)
			call := tr.Begin("hetjpeg.DecodeBatch", op, sp.ID())
			out, err := hetjpeg.DecodeBatch(in, g.opts)
			call.End()
			done := time.Now()
			if err != nil {
				return nil, err
			}
			chk := tr.Begin("perfbench.check", op, sp.ID())
			for i, ir := range out.Images {
				idx := page[i]
				if ir.Res == nil || ir.Err != nil {
					rec.ok = false
					if ir.Res != nil {
						ir.Res.Release()
					}
					continue
				}
				if maphash.Bytes(g.hseed, ir.Res.Image.Pix) != g.refHash[idx] {
					rec.ok = false
					res.mismatches++
				}
				// Schedules are deterministic: an image's virtual
				// makespan must not change between pages.
				switch {
				case runNs[idx] == 0:
					runNs[idx] = ir.Res.TotalNs
				case runNs[idx] != ir.Res.TotalNs:
					rec.ok = false
					res.mismatches++
				}
				ir.Res.Release()
			}
			gain = append(gain, out.Gain())
			chk.End()
			sp.End()
			rec.latMs, rec.lagMs = opTiming(false, prevDone, sent, done)
			res.ops = append(res.ops, rec)
			prevDone = done
		}
	}
	res.elapsed = time.Since(start)
	for i, ns := range runNs {
		res.virtSeq += g.seqNs[i]
		res.virtRun += ns
	}
	res.set("batch.pipelining_gain", mean(gain), "mean SerialNs/PipelinedNs over %d pages", len(gain))
	return res, nil
}

func (g *gallery) check(*passResult) error { return nil }

func (g *gallery) probes() probeSet {
	ps := probeSet{batch: g.opts, model: g.opts.Model, flavors: transcodeFlavors}
	for i := range g.items {
		ps.jobs = append(ps.jobs, probeJob{item: i, scale: hetjpeg.Scale1})
	}
	return ps
}

func (g *gallery) close() {}
