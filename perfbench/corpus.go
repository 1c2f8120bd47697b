package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sync"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// slot is one corpus position. Its geometry, detail, chroma layout and
// coding are fixed; only the scene content follows the seed, so every
// seed exercises the same mix of sizes, entropy densities and coding
// paths.
type slot struct {
	W, H   int
	Detail float64
	Sub    jfif.Subsampling
	// Prog names an imagegen.ProgressiveVariants entry (script, chroma
	// layout and restart interval); empty for a baseline stream.
	Prog string
	RST  int
}

// slots spans 256² to about 2 MP, detail 0.1/0.5/0.9 (about 0.07-0.27
// B/px, the paper's entropy axis), 4:2:0/4:2:2/4:4:4, progressive
// scripts and restart intervals. 11.1 MP in all.
var slots = []slot{
	{W: 256, H: 256, Detail: 0.1, Sub: jfif.Sub420},
	{W: 384, H: 256, Detail: 0.5, Prog: "deepsa-444"},
	{W: 512, H: 384, Detail: 0.5, Sub: jfif.Sub422},
	{W: 640, H: 480, Detail: 0.9, Sub: jfif.Sub444},
	{W: 800, H: 600, Detail: 0.1, Sub: jfif.Sub420, RST: 4},
	{W: 1024, H: 768, Detail: 0.5, Sub: jfif.Sub420},
	{W: 1024, H: 768, Detail: 0.9, Prog: "default-422"},
	{W: 1280, H: 960, Detail: 0.1, Sub: jfif.Sub444},
	{W: 1280, H: 960, Detail: 0.5, Prog: "spectral-420-rst4"},
	{W: 1600, H: 1200, Detail: 0.9, Sub: jfif.Sub420},
	{W: 1600, H: 1200, Detail: 0.5, Sub: jfif.Sub422, RST: 8},
	{W: 1920, H: 1080, Detail: 0.5, Sub: jfif.Sub420},
}

// serviceSlots is how many of the smallest slots the service catalog
// uses (up to 1.2 MP). Lighter requests let the open loop run at a
// higher rate, so each run's latency tail rests on many more arrival
// bursts than the 2 MP images would allow.
const serviceSlots = 8

// slotsFor is the slot list a workload's corpus is built from.
func slotsFor(workload string) []slot {
	if workload == "service" {
		return slots[:serviceSlots]
	}
	return slots
}

// inputQuality is the encoder quality of every generated input.
const inputQuality = 85

// sceneSeed derives a slot's scene seed from the run seed and the
// workload, so the three workloads never share scenes.
func sceneSeed(seed int64, workload string, slot int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(slot))
	h.Write([]byte(workload))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

// buildCorpus renders and encodes one item per slot, two at a time.
func buildCorpus(seed int64, workload string) ([]imagegen.Item, error) {
	variants := map[string]imagegen.ProgressiveVariant{}
	for _, v := range imagegen.ProgressiveVariants() {
		variants[v.Name] = v
	}
	slots := slotsFor(workload)
	items := make([]imagegen.Item, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, s := range slots {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s slot) {
			defer wg.Done()
			defer func() { <-sem }()
			opts := jpegcodec.EncodeOptions{Quality: inputQuality, Subsampling: s.Sub, RestartInterval: s.RST}
			if s.Prog != "" {
				v, ok := variants[s.Prog]
				if !ok {
					errs[i] = fmt.Errorf("corpus: unknown progressive variant %q", s.Prog)
					return
				}
				opts.Subsampling, opts.RestartInterval = v.Sub, v.RestartInterval
				opts.Progressive, opts.Script = true, v.Script
			}
			img := imagegen.Generate(imagegen.Scene{Seed: sceneSeed(seed, workload, i), Detail: s.Detail}, s.W, s.H)
			data, err := jpegcodec.Encode(img, opts)
			img.Release()
			if err != nil {
				errs[i] = fmt.Errorf("corpus: encode slot %d: %w", i, err)
				return
			}
			items[i] = imagegen.Item{
				Name:            fmt.Sprintf("s%02d-%s-d%.1f-%dx%d", i, opts.Subsampling, s.Detail, s.W, s.H),
				Data:            data,
				W:               s.W,
				H:               s.H,
				Sub:             opts.Subsampling,
				Detail:          s.Detail,
				Density:         float64(len(data)) / float64(s.W*s.H),
				Progressive:     opts.Progressive,
				RestartInterval: opts.RestartInterval,
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// withComment returns a copy of a JPEG stream with a COM segment after
// SOI. The pixels are unchanged, the bytes (and so the cache key) are
// not: the same photo uploaded again with different metadata.
func withComment(data []byte, text string) []byte {
	n := len(text) + 2
	out := make([]byte, 0, len(data)+n+2)
	out = append(out, data[:2]...)
	out = append(out, 0xFF, 0xFE, byte(n>>8), byte(n))
	out = append(out, text...)
	return append(out, data[2:]...)
}

// fingerprint is the SHA-256 of the corpus: every item's name and bytes
// in order. Two runs that print the same fingerprint saw the same
// inputs.
func fingerprint(items []imagegen.Item) string {
	h := sha256.New()
	var n [8]byte
	for _, it := range items {
		h.Write([]byte(it.Name))
		binary.LittleEndian.PutUint64(n[:], uint64(len(it.Data)))
		h.Write(n[:])
		h.Write(it.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func mpix(w, h int) float64 { return float64(w*h) / 1e6 }
