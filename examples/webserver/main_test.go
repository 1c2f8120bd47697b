package main

// End-to-end checks of the decode service as an application mounts it:
// every request goes through the /img/ prefix, so a route or status
// that the prefix mount broke shows up here. The 12-bit upload also
// proves errors.Is(err, hetjpeg.ErrUnsupported) survives every wrap
// between jpegcodec and the HTTP layer: a re-stringified error would
// come back 422 instead of 415.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"testing"

	"hetjpeg"
	"hetjpeg/internal/imaged"
)

type reply struct {
	Width         int    `json:"width"`
	Height        int    `json:"height"`
	Error         string `json:"error"`
	Unsupported   bool   `json:"unsupported"`
	Salvaged      bool   `json:"salvaged"`
	RecoveredMCUs int    `json:"recoveredMcus"`
	TotalMCUs     int    `json:"totalMcus"`
	SalvageError  string `json:"salvageError"`
}

type batchReply struct {
	OK       int `json:"ok"`
	Salvaged int `json:"salvaged"`
	Errors   int `json:"errors"`
	Items    []struct {
		Status int `json:"status"`
		reply
	} `json:"items"`
}

// testServer serves the example mux over a service with cfg's knobs on
// top of the GTX 560 platform and two workers.
func testServer(t *testing.T, cfg imaged.Config) *httptest.Server {
	t.Helper()
	cfg.Spec = hetjpeg.PlatformByName("GTX 560")
	if cfg.Spec == nil {
		t.Fatal("platform GTX 560 missing")
	}
	cfg.Workers = 2
	cfg.Log = log.New(io.Discard, "", 0)
	s, err := imaged.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

func encodeJPEG(t *testing.T, w, h int) []byte {
	t.Helper()
	img := hetjpeg.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Set(x, y, byte(x), byte(y), byte(x+y))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: hetjpeg.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// unsupportedJPEG flips the SOF0 precision byte to 12 bits: valid
// JPEG, out-of-scope feature, the ErrUnsupported class.
func unsupportedJPEG(t *testing.T) []byte {
	t.Helper()
	data := encodeJPEG(t, 64, 48)
	i := bytes.Index(data, []byte{0xFF, 0xC0})
	if i < 0 {
		t.Fatal("no SOF0 marker")
	}
	data[i+4] = 12
	return data
}

// salvageableJPEG truncates a restart-marker stream inside its entropy
// data: strict decoding fails, salvage recovers a partial image.
func salvageableJPEG(t *testing.T) []byte {
	t.Helper()
	img := hetjpeg.NewImage(160, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 160; x++ {
			img.Set(x, y, byte(x*2), byte(y*2), byte(x+y))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{
		Quality: 85, Subsampling: hetjpeg.Sub420, RestartInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data[:len(data)*3/4]
}

// post sends body to path and decodes a JSON reply into out (when the
// reply is JSON); it returns the response for its status and headers.
func post(t *testing.T, ts *httptest.Server, path, contentType string, body []byte, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON reply: %v\n%s", err, raw)
		}
	}
	return resp
}

func postDecode(t *testing.T, ts *httptest.Server, query string, body []byte) (int, reply) {
	t.Helper()
	var r reply
	resp := post(t, ts, "/img/decode?"+query, "image/jpeg", body, &r)
	return resp.StatusCode, r
}

// postBatch sends the images as one multipart /img/batch request.
func postBatch(t *testing.T, ts *httptest.Server, images ...[]byte) batchReply {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, data := range images {
		fw, err := mw.CreateFormFile("img", "img.jpg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	var r batchReply
	if resp := post(t, ts, "/img/batch", mw.FormDataContentType(), buf.Bytes(), &r); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	if len(r.Items) != len(images) {
		t.Fatalf("%d batch items, want %d", len(r.Items), len(images))
	}
	return r
}

func TestDecodeEndpointOK(t *testing.T) {
	ts := testServer(t, imaged.Config{})
	status, r := postDecode(t, ts, "scale=1/2", encodeJPEG(t, 64, 48))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (error: %s)", status, r.Error)
	}
	if r.Width != 32 || r.Height != 24 {
		t.Errorf("scaled decode %dx%d, want 32x24", r.Width, r.Height)
	}
}

func TestDecodeEndpointUnsupportedIs415(t *testing.T) {
	ts := testServer(t, imaged.Config{})
	status, r := postDecode(t, ts, "", unsupportedJPEG(t))
	if status != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415; reply %+v", status, r)
	}
	if !r.Unsupported {
		t.Error("reply.Unsupported = false: errors.Is lost the sentinel between jpegcodec and the handler")
	}
}

func TestDecodeEndpointCorruptIs422(t *testing.T) {
	ts := testServer(t, imaged.Config{})
	// Real SOI magic, then a truncated stream: corruption, not a wrong
	// file type.
	data := encodeJPEG(t, 64, 48)
	status, r := postDecode(t, ts, "", data[:len(data)/2])
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; reply %+v", status, r)
	}
	if r.Unsupported {
		t.Error("corruption misclassified as unsupported feature")
	}
}

// TestDecodeEndpointNonJPEGIs415 posts bodies that are not JPEG at all:
// they must be refused with a JSON 415.
func TestDecodeEndpointNonJPEGIs415(t *testing.T) {
	ts := testServer(t, imaged.Config{})
	for name, body := range map[string][]byte{
		"png":   []byte("\x89PNG\r\n\x1a\nxxxxxxxx"),
		"text":  []byte("not a jpeg at all"),
		"empty": nil,
	} {
		status, r := postDecode(t, ts, "", body)
		if status != http.StatusUnsupportedMediaType {
			t.Errorf("%s body: status = %d, want 415", name, status)
		}
		if r.Error == "" {
			t.Errorf("%s body: 415 reply has no JSON error", name)
		}
	}
}

// TestDecodeEndpointOversizedIs413JSON drops the body cap to 1 KiB and
// posts a larger JPEG: the trip must surface as 413 with the JSON error
// contract, not a bare-text 400.
func TestDecodeEndpointOversizedIs413JSON(t *testing.T) {
	ts := testServer(t, imaged.Config{MaxBody: 1 << 10})
	status, r := postDecode(t, ts, "", encodeJPEG(t, 256, 256))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; reply %+v", status, r)
	}
	if r.Error == "" {
		t.Error("413 reply has no JSON error body")
	}
}

func TestDecodeEndpointBadScaleIs400(t *testing.T) {
	ts := testServer(t, imaged.Config{})
	if status, _ := postDecode(t, ts, "scale=1/3", encodeJPEG(t, 64, 48)); status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
}

func TestBatchEndpointIsolatesUnsupportedImage(t *testing.T) {
	ts := testServer(t, imaged.Config{})
	r := postBatch(t, ts, encodeJPEG(t, 64, 48), unsupportedJPEG(t))
	if r.OK != 1 || r.Errors != 1 {
		t.Fatalf("ok=%d errors=%d, want 1 success and 1 failure", r.OK, r.Errors)
	}
	if good := r.Items[0]; good.Status != http.StatusOK || good.Error != "" {
		t.Errorf("good image failed: %d %s", good.Status, good.Error)
	}
	if bad := r.Items[1]; bad.Status != http.StatusUnsupportedMediaType || !bad.Unsupported {
		t.Errorf("12-bit part: status %d unsupported %v, want 415 true: the sentinel did not survive the batch layer",
			bad.Status, bad.Unsupported)
	}
}

// TestDecodeEndpointSalvageIs200 checks the salvage status mapping: a
// strict service answers the corrupt upload 422; a salvaging one
// answers the same bytes 200 with the X-Hetjpeg-Salvaged header and the
// salvage accounting in the body.
func TestDecodeEndpointSalvageIs200(t *testing.T) {
	data := salvageableJPEG(t)
	status, r := postDecode(t, testServer(t, imaged.Config{}), "", data)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("strict status = %d, want 422; reply %+v", status, r)
	}
	if r.Salvaged {
		t.Error("strict reply claims salvage")
	}

	var s reply
	resp := post(t, testServer(t, imaged.Config{Salvage: true}), "/img/decode", "image/jpeg", data, &s)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("salvage status = %d, want 200; reply %+v", resp.StatusCode, s)
	}
	if resp.Header.Get("X-Hetjpeg-Salvaged") != "true" {
		t.Error("X-Hetjpeg-Salvaged header missing on a salvaged decode")
	}
	if !s.Salvaged || s.SalvageError == "" {
		t.Fatalf("salvage reply %+v: want Salvaged with SalvageError", s)
	}
	if s.Width != 160 || s.Height != 128 {
		t.Errorf("salvaged dimensions %dx%d, want 160x128", s.Width, s.Height)
	}
	if s.RecoveredMCUs <= 0 || s.RecoveredMCUs >= s.TotalMCUs {
		t.Errorf("recovered %d of %d MCUs, want a strict partial recovery", s.RecoveredMCUs, s.TotalMCUs)
	}
}

// TestBatchEndpointSalvage mixes a clean and a salvageable image in one
// batch to a salvaging service and checks the per-image salvage fields.
func TestBatchEndpointSalvage(t *testing.T) {
	ts := testServer(t, imaged.Config{Salvage: true})
	r := postBatch(t, ts, encodeJPEG(t, 64, 48), salvageableJPEG(t))
	if r.Errors != 0 || r.Salvaged != 1 {
		t.Fatalf("errors=%d salvaged=%d, want 0/1", r.Errors, r.Salvaged)
	}
	if clean := r.Items[0]; clean.Status != http.StatusOK || clean.Salvaged || clean.Error != "" {
		t.Errorf("clean image misreported: %+v", clean)
	}
	hurt := r.Items[1]
	if hurt.Status != http.StatusOK || !hurt.Salvaged || hurt.SalvageError == "" || hurt.Width != 160 {
		t.Errorf("salvaged image misreported: %+v", hurt)
	}
	if hurt.RecoveredMCUs <= 0 || hurt.RecoveredMCUs >= hurt.TotalMCUs {
		t.Errorf("recovered %d of %d MCUs, want a strict partial recovery", hurt.RecoveredMCUs, hurt.TotalMCUs)
	}
}
