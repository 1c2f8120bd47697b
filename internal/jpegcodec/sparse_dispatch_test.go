package jpegcodec

import (
	"testing"

	"hetjpeg/internal/jfif"
)

// Tests for the sparse-IDCT dispatch and the fused band pipeline: the
// decoder's fast paths must be invisible in the output.

// decodeDense decodes data with the per-block sparsity records wiped, so
// every block takes the dense fallback kernel — the dispatch-free
// reference output.
func decodeDense(t *testing.T, data []byte) *RGBImage {
	t.Helper()
	f, ed, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	for c := range f.NZ {
		clear(f.NZ[c])
	}
	out := NewRGBImage(f.Img.Width, f.Img.Height)
	ParallelPhaseScalar(f, 0, f.MCURows, out)
	return out
}

// TestSparseDispatchMatchesDense covers smooth (DC-heavy), mixed and
// detailed (dense) content across subsamplings and qualities: the
// dispatched decode must be byte-identical to the dense-only decode.
func TestSparseDispatchMatchesDense(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, q := range []int{35, 85, 97} {
			for _, seed := range []int64{3, 77} {
				img := makeTestImage(173, 121, seed)
				data, err := Encode(img, EncodeOptions{Quality: q, Subsampling: sub})
				if err != nil {
					t.Fatal(err)
				}
				want := decodeDense(t, data)
				got, err := DecodeScalar(data)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("%v q=%d seed=%d: pixel byte %d: dispatched %d != dense %d",
							sub, q, seed, i, got.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}

// TestNZRecordsSparsity checks the bookkeeping against the coefficients:
// NZ must name the last nonzero zigzag index of every block.
func TestNZRecordsSparsity(t *testing.T) {
	img := makeTestImage(160, 128, 9)
	data, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	f, ed, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	sawSparse := false
	for c := range f.Coeff {
		p := f.Planes[c]
		for b := 0; b < p.Blocks(); b++ {
			blk := f.Coeff[c][b*64 : b*64+64]
			last := 0
			for k := 63; k > 0; k-- {
				if blk[jfif.ZigZag[k]] != 0 {
					last = k
					break
				}
			}
			if got := int(f.NZ[c][b]); got != last+1 {
				t.Fatalf("component %d block %d: NZ=%d, want %d", c, b, got, last+1)
			}
			if last == 0 {
				sawSparse = true
			}
		}
	}
	if !sawSparse {
		t.Fatal("fixture produced no DC-only blocks; sparsity paths untested")
	}
}

// TestParallelPhaseWorkersIdentical: the intra-image worker pool must be
// byte-identical to the sequential fused pipeline for every worker
// count, subsampling and awkward geometry (seams at 4:2:0 boundaries).
func TestParallelPhaseWorkersIdentical(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, wh := range [][2]int{{48, 48}, {167, 133}, {320, 99}} {
			img := makeTestImage(wh[0], wh[1], 31)
			data, err := Encode(img, EncodeOptions{Quality: 88, Subsampling: sub})
			if err != nil {
				t.Fatal(err)
			}
			want, err := DecodeScalar(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8, 64} {
				f, ed, err := PrepareDecode(data)
				if err != nil {
					t.Fatal(err)
				}
				if err := ed.DecodeAll(); err != nil {
					t.Fatal(err)
				}
				got := NewRGBImage(f.Img.Width, f.Img.Height)
				ParallelPhaseScalarWorkers(f, 0, f.MCURows, got, workers)
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("%v %dx%d workers=%d: pixel byte %d differs",
							sub, wh[0], wh[1], workers, i)
					}
				}
			}
		}
	}
}
