package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/transcode"
)

func smallItem(t *testing.T) imagegen.Item {
	t.Helper()
	img := imagegen.Generate(imagegen.Scene{Seed: 42, Detail: 0.5}, 96, 64)
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: inputQuality, Subsampling: jfif.Sub420})
	if err != nil {
		t.Fatal(err)
	}
	return imagegen.Item{Name: "small", Data: data, W: 96, H: 64, Sub: jfif.Sub420, Detail: 0.5}
}

func TestCheckTranscodeRejectsCorruptOutput(t *testing.T) {
	in := smallItem(t)
	for _, fl := range append(append([]flavor(nil), transcodeFlavors...), serviceFlavors...) {
		out, err := transcode.Transcode(in.Data, fl.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkTranscode(in, fl, out.Data); err != nil {
			t.Fatalf("%s: the one-shot output failed its own check: %v", fl.name, err)
		}
		flipped := bytes.Clone(out.Data)
		flipped[len(flipped)-10] ^= 0x5a // inside the last entropy-coded segment
		if _, err := checkTranscode(in, fl, flipped); err == nil {
			t.Errorf("%s: a corrupted output passed", fl.name)
		}
		if _, err := checkTranscode(in, fl, out.Data[:len(out.Data)/2]); err == nil {
			t.Errorf("%s: a truncated output passed", fl.name)
		}
	}
}

func TestPSNRFloorAppliesPerDetail(t *testing.T) {
	fl := transcodeFlavors[3]
	if fl.floorFor(0.1) != fl.floor || fl.floorFor(0.5) != fl.floor || fl.floorFor(0.9) != fl.denseFloor {
		t.Error("floorFor does not pick the conformance floor up to detail 0.5")
	}
	a := jpegcodec.NewRGBImage(4, 4)
	b := jpegcodec.NewRGBImage(4, 4)
	if p, _ := psnrRGB(a, b); p != 100 {
		t.Errorf("PSNR of identical images = %g, want the 100 dB cap", p)
	}
	b.Pix[0] = 255
	if p, _ := psnrRGB(a, b); p >= 100 || p <= 0 {
		t.Errorf("PSNR of differing images = %g", p)
	}
	if _, err := psnrRGB(a, jpegcodec.NewRGBImage(4, 5)); err == nil {
		t.Error("PSNR of differently sized images did not fail")
	}
}

func TestWrongOutputFailsTheRun(t *testing.T) {
	res := &passResult{ops: []opRecord{{ok: true, key: 3}, {ok: true, key: 4}, {ok: true, key: 3}, {ok: false, key: 3}}}
	res.fail(3)
	attempted, failed := res.counts()
	if attempted != 4 || failed != 3 || res.mismatches != 2 {
		t.Fatalf("attempted %d failed %d mismatches %d, want 4, 3, 2", attempted, failed, res.mismatches)
	}
	var out strings.Builder
	code, err := (&report{w: &out}).finish(res)
	if code == 0 || err == nil {
		t.Fatalf("a run with wrong outputs exited %d, %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 4 || line.Failed != 3 {
		t.Errorf("result line %+v", line)
	}
}

func TestRunRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "gallery", "--seconds", "0"},
		{"--workload", "gallery", "--child", "nope"},
	} {
		var out strings.Builder
		if code, err := run(args, &out); code == 0 || err == nil || out.Len() != 0 {
			t.Errorf("%v: exit %d, err %v, output %q", args, code, err, out.String())
		}
	}
}

func TestCommentVariantKeepsPixels(t *testing.T) {
	in := smallItem(t)
	v := withComment(in.Data, "variant 1")
	if bytes.Equal(v, in.Data) {
		t.Fatal("variant has the same bytes")
	}
	a, err := jpegcodec.DecodeScalar(in.Data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jpegcodec.DecodeScalar(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Error("variant decodes to other pixels")
	}
}
