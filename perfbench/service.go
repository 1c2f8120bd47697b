package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imaged"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/metrics"
	"hetjpeg/internal/transcode"
)

// The service catalog: every corpus image in catalogVariants byte
// variants (the same photo with different metadata, so a distinct cache
// key), ranked for popularity with Zipf exponent zipfS. Rank r is image
// r mod len(items), variant r / len(items), so every image is among the
// most popular. Decoded at full size the catalog is 68 × 3.95 MP × 3 B
// ≈ 800 MB, three times the service's default 256 MiB cache.
const (
	catalogVariants = 68
	zipfS           = 0.6
)

// reqKind is one request type of the service mix.
type reqKind struct {
	name   string
	path   string
	scale  jpegcodec.Scale
	weight float64
	xcode  bool
}

var serviceKinds = []reqKind{
	{name: "decode-1/8", path: "/decode?scale=1/8", scale: jpegcodec.Scale8, weight: 0.6},
	{name: "decode-full", path: "/decode", scale: jpegcodec.Scale1, weight: 0.2},
	{name: "transcode-1/4", path: "/transcode?scale=1/4&quality=75", scale: jpegcodec.Scale4, weight: 0.2, xcode: true},
}

// serviceFlavors is what a /transcode request of the mix asks for;
// 1/4 is a new pixel grid, so the encoder-alone floors apply.
var serviceFlavors = []flavor{{name: "quarter-q75", opts: transcode.Options{Scale: jpegcodec.Scale4, Quality: 75}, floor: 34.5, denseFloor: 31.0}}

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // due time since the start of the pass
	rank int           // catalog rank
	kind int           // index into serviceKinds
}

// schedule draws the open loop's arrivals: n = rate × d requests, split
// exactly across the request kinds by weight and, within each kind,
// across catalog ranks by Zipf weight (largest remainders), sent in
// seeded order at n seeded uniform times over [0, d) — a Poisson
// process at the rate, conditioned on its count. Every seed thus sends
// the same mix; only order, timing and the image content differ.
func schedule(seed int64, rate float64, d time.Duration, ranks int) []arrival {
	n := int(math.Round(rate * d.Seconds()))
	kindW := make([]float64, len(serviceKinds))
	for k, kind := range serviceKinds {
		kindW[k] = kind.weight
	}
	zipf := make([]float64, ranks)
	for r := range zipf {
		zipf[r] = math.Pow(float64(r+1), -zipfS)
	}
	out := make([]arrival, 0, n)
	for k, nk := range apportion(n, kindW) {
		for r, c := range apportion(nk, zipf) {
			for j := 0; j < c; j++ {
				out = append(out, arrival{rank: r, kind: k})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	times := make([]time.Duration, len(out))
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for i := range out {
		out[i].at = times[i]
	}
	return out
}

// apportion splits total into whole shares proportional to weights by
// the largest-remainder method (ties to the lower index).
func apportion(total int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := total
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// scheduleFingerprint is the SHA-256 of an arrival schedule.
func scheduleFingerprint(s []arrival) string {
	h := sha256.New()
	var b [24]byte
	for _, a := range s {
		binary.LittleEndian.PutUint64(b[:8], uint64(a.at))
		binary.LittleEndian.PutUint64(b[8:16], uint64(a.rank))
		binary.LittleEndian.PutUint64(b[16:], uint64(a.kind))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// service drives an in-process imaged server (default config: no model,
// so auto resolves to the pipelined mode; 256 MiB cache) over loopback
// keep-alive connections with an open loop.
type service struct {
	*env
	catalog [][]byte
	warm    []imagegen.Item

	srv    *imaged.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func (s *service) prepare() error {
	var err error
	if s.warm, err = warmItems(); err != nil {
		return err
	}
	for r := 0; r < len(s.items)*catalogVariants; r++ {
		it, v := s.items[r%len(s.items)], r/len(s.items)
		if v == 0 {
			s.catalog = append(s.catalog, it.Data)
			continue
		}
		s.catalog = append(s.catalog, withComment(it.Data, fmt.Sprintf("perfbench catalog variant %d", v)))
	}
	return nil
}

func (s *service) setup() error {
	srv, err := imaged.New(imaged.Config{Spec: s.plat, Workers: s.nproc, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	conns := s.ws.clients()
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	// Warm every endpoint on every connection, past the cache.
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, k := range serviceKinds {
				st, _, _, err := s.post(k.path, "cache=bypass", s.warm[c%len(s.warm)].Data)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("status %d", st)
				}
				if err != nil {
					errs[c] = fmt.Errorf("service warm-up %s: %w", k.name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// post sends one request and reads the whole reply.
func (s *service) post(path, extra string, body []byte) (int, http.Header, []byte, error) {
	url := s.base + path
	if extra != "" {
		if bytes.IndexByte([]byte(path), '?') >= 0 {
			url += "&" + extra
		} else {
			url += "?" + extra
		}
	}
	resp, err := s.client.Post(url, "image/jpeg", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// decodeReply is the part of imaged's /decode reply the checks read.
type decodeReply struct {
	Width     int     `json:"width"`
	Height    int     `json:"height"`
	VirtualMs float64 `json:"virtualMs"`
	WallMs    float64 `json:"wallMs"`
}

// reqResult is what one request's reply said beyond its opRecord.
type reqResult struct {
	arrival
	status   int
	cache    string
	degraded bool
	// clientMs is send-to-completion, serverMs the reply's wallMs
	// (/decode only).
	clientMs, serverMs float64
	virtualMs          float64
}

func (s *service) pass(d time.Duration, tr *Tracer) (*passResult, error) {
	sched := schedule(s.seed, s.ws.RatePerS, d, len(s.catalog))
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	res := &passResult{outputs: map[int][]byte{}}
	res.ops = make([]opRecord, len(sched))
	rr := make([]reqResult, len(sched))
	var mu sync.Mutex
	start := time.Now()
	openLoop(start, sched, s.ws.clients(), func(i int, due, sent time.Time) {
		res.ops[i], rr[i] = s.request(tr, int64(i+1), sched[i], due, sent, res, &mu)
	})
	res.elapsed = time.Since(start)
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	s.record(res, rr, before, after)
	res.notes = append(res.notes, fmt.Sprintf("schedule: %d arrivals, sha256 %s", len(sched), scheduleFingerprint(sched)))
	res.requests = rr
	return res, nil
}

// openLoop sends the schedule's arrivals from start over conns
// connections: each arrival is handed to a free connection at its due
// time, or as soon as one frees up after it. do runs the request; sent
// is when a connection took it.
func openLoop(start time.Time, sched []arrival, conns int, do func(i int, due, sent time.Time)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i, start.Add(sched[i].at), time.Now())
			}
		}()
	}
	for i, a := range sched {
		if wait := time.Until(start.Add(a.at)); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// request sends one scheduled request and checks its reply.
func (s *service) request(tr *Tracer, op int64, a arrival, due, sent time.Time, res *passResult, mu *sync.Mutex) (opRecord, reqResult) {
	kind := serviceKinds[a.kind]
	slotIdx := a.rank % len(s.items)
	it := s.items[slotIdx]
	sp := tr.Begin("service.request", op, 0)
	defer sp.End()
	call := tr.Begin("imaged.POST "+kind.name, op, sp.ID())
	status, hdr, body, err := s.post(kind.path, "", s.catalog[a.rank])
	call.End()
	done := time.Now()
	chk := tr.Begin("perfbench.check", op, sp.ID())
	defer chk.End()
	rec := opRecord{mpix: mpix(it.W, it.H), key: -1, refused: status == http.StatusTooManyRequests}
	rec.latMs, rec.lagMs = opTiming(true, due, sent, done)
	r := reqResult{arrival: a, status: status, clientMs: ms(done.Sub(sent))}
	if err != nil || status != http.StatusOK {
		return rec, r
	}
	r.cache, r.degraded = hdr.Get("X-Hetjpeg-Cache"), hdr.Get("X-Hetjpeg-Degraded") == "true"
	rec.ok, rec.kind = true, kind.name+" "+r.cache
	mu.Lock()
	defer mu.Unlock()
	if kind.xcode {
		rec.key = slotIdx
		if prev, seen := res.outputs[slotIdx]; !seen {
			res.outputs[slotIdx] = body
		} else if !bytes.Equal(prev, body) {
			rec.ok = false
			res.mismatches++
		}
		return rec, r
	}
	var rep decodeReply
	w, h := outDims(it.W, it.H, kind.scale)
	if json.Unmarshal(body, &rep) != nil || rep.Width != w || rep.Height != h {
		rec.ok = false
		res.mismatches++
	}
	r.serverMs, r.virtualMs = rep.WallMs, rep.VirtualMs
	return rec, r
}

// record derives the cache, HTTP and admission figures of a pass.
func (s *service) record(res *passResult, rr []reqResult, before, after map[string]float64) {
	var hit, miss, wait, shed, degraded int
	var server, overhead []float64
	for _, r := range rr {
		switch r.cache {
		case "hit":
			hit++
		case "miss":
			miss++
		case "wait":
			wait++
		}
		if r.status == http.StatusTooManyRequests {
			shed++
		}
		if r.degraded {
			degraded++
		}
		if r.status == http.StatusOK && !serviceKinds[r.kind].xcode {
			server = append(server, r.serverMs)
			overhead = append(overhead, r.clientMs-r.serverMs)
		}
	}
	lookups := float64(hit + miss + wait)
	n := float64(len(rr))
	res.set("rescache.hit_ratio", ratio(float64(hit), lookups), "%d hits of %d lookups (X-Hetjpeg-Cache)", hit, int(lookups))
	res.set("rescache.wait_ratio", ratio(float64(wait), lookups), "%d waits of %d lookups", wait, int(lookups))
	ev := after["hetjpeg_cache_evictions_total"] - before["hetjpeg_cache_evictions_total"]
	res.set("rescache.evictions", ev, "/metrics delta over the pass")
	res.set("rescache.resident_mb", after["hetjpeg_cache_resident_bytes"]/(1<<20), "/metrics at the end of the pass, %.0f entries", after["hetjpeg_cache_entries"])
	res.set("imaged.server_ms_p50", percentile(server, 50), "reply wallMs over %d /decode replies", len(server))
	res.set("imaged.http_overhead_ms_p50", percentile(overhead, 50), "client send-to-reply minus wallMs over %d /decode replies", len(overhead))
	res.set("imaged.shed_ratio", ratio(float64(shed), n), "%d of %d requests got 429", shed, len(rr))
	res.set("imaged.degraded_ratio", ratio(float64(degraded), n), "%d of %d requests degraded", degraded, len(rr))
}

// scrape reads the /metrics samples the pass diffs, by name.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, sm := range f.Samples {
			if len(sm.Labels) == 0 {
				out[sm.Name] = sm.Value
			}
		}
	}
	return out, nil
}

func (s *service) check(res *passResult) error {
	if err := checkOutputs(s.env, res, transcodeKeys(s.items, serviceFlavors), serviceFlavors); err != nil {
		return err
	}
	// The /decode replies carry the virtual makespan of the schedule
	// that ran; the sequential baseline is computed here, per distinct
	// (image, scale).
	seq := map[[2]int]float64{}
	for i, r := range res.requests {
		kind := serviceKinds[r.kind]
		if kind.xcode || !res.ops[i].ok {
			continue
		}
		k := [2]int{r.rank, int(kind.scale)}
		ns, ok := seq[k]
		if !ok {
			var err error
			if ns, err = seqVirtualNs(s.plat, s.catalog[r.rank], kind.scale); err != nil {
				return err
			}
			seq[k] = ns
		}
		res.virtSeq += ns
		res.virtRun += r.virtualMs * 1e6
	}
	return nil
}

func (s *service) probes() probeSet {
	ps := probeSet{batch: hetjpeg.BatchOptions{Spec: s.plat, Workers: s.nproc}, flavors: serviceFlavors}
	for i := range s.items {
		for _, k := range serviceKinds {
			ps.jobs = append(ps.jobs, probeJob{item: i, scale: k.scale})
		}
	}
	return ps
}

func (s *service) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // the handlers have all returned; nothing to report
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}
