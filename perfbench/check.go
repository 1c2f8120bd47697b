package main

import (
	"bytes"
	"errors"
	"fmt"
	"image/jpeg"
	"math"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/transcode"
)

// flavor is one kind of transcode the workloads request.
type flavor struct {
	name string
	opts transcode.Options
	// baselineOnly limits the flavor to baseline inputs (the 1/8 DC-only
	// fast path needs one).
	baselineOnly bool
	// floor is the lowest PSNR (dB) the output may have against the
	// scaled reference decode of an input of detail at most 0.5. The
	// values are the floors the conformance-transcode suite commits
	// (internal/conformance/transcode_test.go), measured there on a
	// detail-0.5 scene: the full-size round-trip floor for full-size
	// outputs, the encoder-alone floor for outputs at a new (scaled)
	// pixel grid.
	floor float64
	// denseFloor is this benchmark's floor for detail-0.9 inputs, whose
	// texture no conformance scene has: about 1.5 dB under the lowest
	// PSNR the encoder gave on them over eight corpora.
	denseFloor float64
}

// floorFor is the PSNR floor an output of fl from an input of the given
// detail must meet.
func (fl flavor) floorFor(detail float64) float64 {
	if detail > 0.5 {
		return fl.denseFloor
	}
	return fl.floor
}

// transcodeFlavors is the transcode workload's mix.
var transcodeFlavors = []flavor{
	{name: "full-q75", opts: transcode.Options{Quality: 75}, floor: 36.5, denseFloor: 35.0},
	{name: "half-q90", opts: transcode.Options{Scale: jpegcodec.Scale2, Quality: 90}, floor: 36.5, denseFloor: 35.0},
	{name: "progressive-q75", opts: transcode.Options{Quality: 75, Progressive: true}, floor: 36.5, denseFloor: 35.0},
	{name: "thumb-q75", opts: transcode.Options{Scale: jpegcodec.Scale8, Quality: 75}, baselineOnly: true, floor: 34.5, denseFloor: 30.0},
}

// outDims is the output geometry of a decode at scale.
func outDims(w, h int, scale jpegcodec.Scale) (int, int) {
	d := scale.Denominator()
	return (w + d - 1) / d, (h + d - 1) / d
}

// checkTranscode verifies one transcode output: byte-equal to the
// one-shot transcode.Transcode of the same input, decodable by Go's
// image/jpeg at the advertised size, and no worse in PSNR than the
// flavor's floor for its detail against the scaled reference decode. It returns the
// PSNR.
func checkTranscode(in imagegen.Item, fl flavor, out []byte) (float64, error) {
	ref, err := transcode.Transcode(in.Data, fl.opts)
	if err != nil {
		return 0, fmt.Errorf("one-shot reference: %w", err)
	}
	if !bytes.Equal(ref.Data, out) {
		return 0, errors.New("output differs from the one-shot transcode")
	}
	w, h := outDims(in.W, in.H, fl.opts.Scale)
	std, err := jpeg.Decode(bytes.NewReader(out))
	if err != nil {
		return 0, fmt.Errorf("image/jpeg cannot decode the output: %w", err)
	}
	if b := std.Bounds(); b.Dx() != w || b.Dy() != h {
		return 0, fmt.Errorf("output is %dx%d, want %dx%d", b.Dx(), b.Dy(), w, h)
	}
	want, err := jpegcodec.DecodeScalarScaled(in.Data, fl.opts.Scale)
	if err != nil {
		return 0, err
	}
	defer want.Release()
	got, err := jpegcodec.DecodeScalar(out)
	if err != nil {
		return 0, err
	}
	defer got.Release()
	psnr, err := psnrRGB(want, got)
	if err != nil {
		return 0, err
	}
	if floor := fl.floorFor(in.Detail); psnr < floor {
		return psnr, fmt.Errorf("PSNR %.2f dB below the %.1f dB floor", psnr, floor)
	}
	return psnr, nil
}

// psnrRGB is the PSNR over all channels of two same-size images, capped
// at 100 dB for identical images.
func psnrRGB(a, b *jpegcodec.RGBImage) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("geometry %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var se float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		se += d * d
	}
	mse := se / float64(len(a.Pix))
	return math.Min(100, 10*math.Log10(255*255/mse)), nil
}
