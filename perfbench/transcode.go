package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/transcode"
)

// transcodeLoad is the write side: nproc callers in a closed loop into
// one transcode.Pipeline (no model, so the executor runs the pipelined
// mode), over every (image, flavor) pair once per seeded cycle.
type transcodeLoad struct {
	*env
	pipe *transcode.Pipeline
	warm []imagegen.Item
	keys []xkey
}

// xkey is one (corpus image, flavor) pair.
type xkey struct{ item, flavor int }

// transcodeKeys lists the pairs a corpus and a flavor list make.
func transcodeKeys(items []imagegen.Item, flavors []flavor) []xkey {
	var keys []xkey
	for i, it := range items {
		for f, fl := range flavors {
			if fl.baselineOnly && it.Progressive {
				continue
			}
			keys = append(keys, xkey{i, f})
		}
	}
	return keys
}

func (x *transcodeLoad) prepare() error {
	var err error
	x.warm, err = warmItems()
	x.keys = transcodeKeys(x.items, transcodeFlavors)
	return err
}

func (x *transcodeLoad) setup() error {
	pipe, err := transcode.NewPipeline(hetjpeg.BatchOptions{Spec: x.plat, Workers: x.nproc})
	if err != nil {
		return err
	}
	x.pipe = pipe
	for _, fl := range transcodeFlavors {
		if _, err := pipe.Transcode(context.Background(), x.warm[0].Data, fl.opts); err != nil {
			return fmt.Errorf("transcode warm-up %s: %w", fl.name, err)
		}
	}
	return nil
}

// xcodeStats accumulates what the pass's transcode results say about
// the layers below.
type xcodeStats struct {
	items, fast        int
	decodeNs, encodeNs int64
}

func (x *transcodeLoad) pass(d time.Duration, tr *Tracer) (*passResult, error) {
	res := &passResult{}
	var (
		mu    sync.Mutex
		next  int
		order []int
		first = map[int][]byte{}
		st    xcodeStats
		start = time.Now()
	)
	// take hands out whole cycles, every pair once per cycle, until a
	// cycle ends after d: every pass transcodes the same mix.
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if len(order) == 0 {
			if next > 0 && time.Since(start) >= d {
				return -1
			}
			next++
			order = cycleRand(x.seed, next).Perm(len(x.keys))
		}
		k := order[0]
		order = order[1:]
		return k
	}
	var wg sync.WaitGroup
	recs := make([][]opRecord, x.ws.clients())
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prevDone := start
			for op := int64(c+1) << 32; ; op++ {
				k := take()
				if k < 0 {
					return
				}
				key := x.keys[k]
				in, fl := x.items[key.item], transcodeFlavors[key.flavor]
				sent := time.Now()
				sp := tr.Begin("transcode.item", op, 0)
				call := tr.Begin("transcode.Pipeline.Transcode", op, sp.ID())
				out, err := x.pipe.Transcode(context.Background(), in.Data, fl.opts)
				call.End()
				done := time.Now()
				chk := tr.Begin("perfbench.check", op, sp.ID())
				rec := opRecord{mpix: mpix(in.W, in.H), ok: err == nil, key: k, kind: fl.name}
				rec.latMs, rec.lagMs = opTiming(false, prevDone, sent, done)
				if err == nil {
					mu.Lock()
					if prev, seen := first[k]; !seen {
						first[k] = out.Data
					} else if !bytes.Equal(prev, out.Data) {
						rec.ok = false
						res.mismatches++
					}
					st.items++
					if out.FastPath {
						st.fast++
					}
					st.decodeNs += out.DecodeNs
					st.encodeNs += out.EncodeNs
					mu.Unlock()
				}
				chk.End()
				sp.End()
				recs[c] = append(recs[c], rec)
				prevDone = done
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, r := range recs {
		res.ops = append(res.ops, r...)
	}
	st.record(res)
	res.outputs = first
	return res, nil
}

func (st xcodeStats) record(res *passResult) {
	both := float64(st.decodeNs + st.encodeNs)
	res.set("transcode.fastpath_ratio", ratio(float64(st.fast), float64(st.items)), "%d of %d transcodes", st.fast, st.items)
	res.set("transcode.decode_share", ratio(float64(st.decodeNs), both), "of %.0f ms decode+encode", both/1e6)
	res.set("transcode.encode_share", ratio(float64(st.encodeNs), both), "of %.0f ms decode+encode", both/1e6)
}

// check verifies each distinct output once (every other output of the
// same pair was byte-compared with it during the pass), then derives
// the output size, quality and virtual-speedup figures.
func (x *transcodeLoad) check(res *passResult) error {
	return checkOutputs(x.env, res, x.keys, transcodeFlavors)
}

// checkOutputs checks the pass's first output per transcode pair and
// records transcode.output_bpp, transcode.psnr_db and the virtual
// speedup of the decodes behind the transcodes, all weighted by how
// often each pair ran.
func checkOutputs(e *env, res *passResult, keys []xkey, flavors []flavor) error {
	count := map[int]int{}
	for _, op := range res.ops {
		if op.ok && op.key >= 0 {
			count[op.key]++
		}
	}
	var bits, pix, psnrSum float64
	var n int
	for k, out := range res.outputs {
		key := keys[k]
		in, fl := e.items[key.item], flavors[key.flavor]
		psnr, err := checkTranscode(in, fl, out)
		if err != nil {
			fmt.Printf("# MISMATCH %s %s: %v\n", in.Name, fl.name, err)
			res.fail(k)
			continue
		}
		c := float64(count[k])
		w, h := outDims(in.W, in.H, fl.opts.Scale)
		bits += c * float64(8*len(out))
		pix += c * float64(w*h)
		psnrSum += c * psnr
		n += count[k]
		seq, err := seqVirtualNs(e.plat, in.Data, fl.opts.Scale)
		if err != nil {
			return err
		}
		run, err := hetjpeg.Decode(in.Data, hetjpeg.Options{Spec: e.plat, Scale: fl.opts.Scale, VirtualOnly: true})
		if err != nil {
			return err
		}
		run.Release()
		res.virtSeq += c * seq
		res.virtRun += c * run.TotalNs
	}
	res.set("transcode.output_bpp", ratio(bits, pix), "%.0f output bits over %.0f output pixels", bits, pix)
	res.set("transcode.psnr_db", ratio(psnrSum, float64(n)), "mean over %d outputs against the scaled reference decode", n)
	return nil
}

func (x *transcodeLoad) probes() probeSet {
	ps := probeSet{batch: hetjpeg.BatchOptions{Spec: x.plat, Workers: x.nproc}}
	for _, k := range x.keys {
		ps.jobs = append(ps.jobs, probeJob{item: k.item, scale: transcodeFlavors[k.flavor].opts.Scale})
	}
	return ps
}

func (x *transcodeLoad) close() {
	if x.pipe != nil {
		x.pipe.Close()
	}
}
