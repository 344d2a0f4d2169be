package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"salamander/internal/blockdev"
	"salamander/internal/sim"
	"salamander/internal/ssd"
	"salamander/internal/wire"
)

// Store operations the store probe times.
const (
	opGet = iota
	opPut
	opList
)

// tracer aggregates the spans the benchmark records around calls into the
// device and store layers. Traced passes run one request at a time, so
// every device or store span nests inside the one operation in flight.
type tracer struct {
	enabled atomic.Bool

	devN, devNs [2]atomic.Int64 // [read, write]
	devTotalNs  atomic.Int64    // all device time, for nested accounting
	storeN      [3]atomic.Int64
	storeNs     [3]atomic.Int64

	// record keeps the device-call stream for the baseline-device replay.
	record atomic.Bool
	mu     sync.Mutex
	calls  []devCall
}

type devCall struct {
	node  int32
	write bool
	md    int32
	lba   int32
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) device(write bool, node int, md blockdev.MinidiskID, lba int, d time.Duration) {
	k := 0
	if write {
		k = 1
	}
	t.devN[k].Add(1)
	t.devNs[k].Add(int64(d))
	t.devTotalNs.Add(int64(d))
	if t.record.Load() {
		t.mu.Lock()
		t.calls = append(t.calls, devCall{node: int32(node), write: write, md: int32(md), lba: int32(lba)})
		t.mu.Unlock()
	}
}

func (t *tracer) store(op int, d time.Duration) {
	t.storeN[op].Add(1)
	t.storeNs[op].Add(int64(d))
}

// spanMean returns the mean of the spans recorded between two samples of
// a count and a nanosecond sum, in microseconds.
func spanMeanUs(n0, ns0, n1, ns1 int64) float64 {
	if n1 == n0 {
		return 0
	}
	return float64(ns1-ns0) / float64(n1-n0) / 1e3
}

// opAcct accounts each operation of a single-stream pass: its latency, the
// device time and device calls nested in it, and optionally its heap
// allocations (runtime.ReadMemStats around the op, outside the timed span).
type opAcct struct {
	tr       *tracer
	f        *fleet
	memstats bool

	d0     int64
	r0, w0 uint64
	m0     runtime.MemStats

	n, lat, dev                   [2]int64 // [get, put]
	reads, writes, allocs, allocB [2]uint64
	putBytesDev                   uint64
	wb0                           uint64
}

func (a *opAcct) begin() {
	if a == nil {
		return
	}
	if a.memstats {
		runtime.ReadMemStats(&a.m0)
	}
	a.d0 = a.tr.devTotalNs.Load()
	a.r0, a.w0, a.wb0 = a.f.devCalls()
}

func (a *opAcct) end(put bool, lat int64) {
	if a == nil {
		return
	}
	k := 0
	if put {
		k = 1
	}
	dev := a.tr.devTotalNs.Load() - a.d0
	r, w, wb := a.f.devCalls()
	a.n[k]++
	a.lat[k] += lat
	a.dev[k] += dev
	a.reads[k] += r - a.r0
	a.writes[k] += w - a.w0
	a.putBytesDev += wb - a.wb0
	if a.memstats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		a.allocs[k] += m.Mallocs - a.m0.Mallocs
		a.allocB[k] += m.TotalAlloc - a.m0.TotalAlloc
	}
}

func (a *opAcct) meanUs(k int) float64 {
	if a.n[k] == 0 {
		return 0
	}
	return float64(a.lat[k]) / float64(a.n[k]) / 1e3
}

func (a *opAcct) per(v [2]uint64, k int) float64 {
	if a.n[k] == 0 {
		return 0
	}
	return float64(v[k]) / float64(a.n[k])
}

// runTraced is the per-layer run. Three identically built fleets serve
// single-stream ops: A and B replay one op sequence, A through salnet with
// client spans, B directly through difs with device and store spans; C runs
// the workload's own transport in alternating traced and untraced chunks
// (the tracing overhead). C then serves the workload's full closed loop
// under the CPU profiler, and B runs one traced restart-and-rebuild cycle;
// B's device-call stream is finally replayed on baseline ssd devices.
func runTraced(w workload, seed uint64, seconds int) (*report, error) {
	rep := &report{metrics: map[string]metric{}}
	w.mix.init(w.keys)
	tr := &tracer{}
	type built struct {
		f    *fleet
		ks   *keyspace
		hist []opRec
	}
	build := func(t *tracer) (built, error) {
		f, err := newFleet(w.fleet, t)
		if err != nil {
			return built{}, err
		}
		ks := newKeyspace(w.keys, w.size)
		hist, err := ks.prefill(context.Background(), direct{f.c})
		return built{f, ks, hist}, err
	}
	a, err := build(tr)
	if err != nil {
		return nil, fmt.Errorf("setup A: %w", err)
	}
	b, err := build(tr)
	if err != nil {
		return nil, fmt.Errorf("setup B: %w", err)
	}
	trC := &tracer{}
	c, err := build(trC)
	if err != nil {
		return nil, fmt.Errorf("setup C: %w", err)
	}
	gcQuiesce()
	span := time.Duration(seconds) * time.Second

	// A: salnet, traced client spans.
	srvA, err := startServer(a.f)
	if err != nil {
		return nil, err
	}
	tr.enabled.Store(true)
	accA := &opAcct{tr: tr, f: a.f}
	lrA := runLoad(loadCfg{api: srvA.cl, ks: a.ks, mix: &w.mix, streams: 1, seed: seed,
		deadline: time.Now().Add(span * 3 / 10), acct: accA})
	tr.enabled.Store(false)
	if err := srvA.stop(); err != nil {
		return nil, err
	}
	n := lrA.attempted
	if n == 0 {
		return nil, fmt.Errorf("traced salnet pass completed no operations")
	}
	absorb(rep, "salnet pass", lrA, &a.hist)

	// B: the same op sequence straight into difs, device/store spans,
	// allocations per op, device-call stream recorded.
	var s0n, s0ns [3]int64
	for i := range s0n {
		s0n[i], s0ns[i] = tr.storeN[i].Load(), tr.storeNs[i].Load()
	}
	accB := &opAcct{tr: tr, f: b.f, memstats: true}
	c0 := snapshotCounters(b.f)
	dn0 := [2]int64{tr.devN[0].Load(), tr.devN[1].Load()}
	dns0 := [2]int64{tr.devNs[0].Load(), tr.devNs[1].Load()}
	tr.enabled.Store(true)
	tr.record.Store(true)
	lrB := runLoad(loadCfg{api: direct{b.f.c}, ks: b.ks, mix: &w.mix, streams: 1, seed: seed,
		deadline: time.Now().Add(time.Hour), maxOps: n, acct: accB})
	tr.record.Store(false)
	tr.enabled.Store(false)
	c1 := snapshotCounters(b.f)
	absorb(rep, "direct pass", lrB, &b.hist)

	// C: the workload's transport, alternating traced and untraced chunks.
	var apiC kvAPI = direct{c.f.c}
	var srvC *server
	if w.net {
		if srvC, err = startServer(c.f); err != nil {
			return nil, err
		}
		apiC = srvC.cl
	}
	rep.set("trace.overhead_pct", "%", traceOverhead(w, c.f, c.ks, apiC, trC, seed+2, n, rep, &c.hist))

	// C again: the full closed loop under the CPU profiler.
	cpuByModule, loadOps, allocPerOp, batchedPerGet, err := profiledLoad(w, c.f, c.ks, apiC, seed+1, span*2/10, rep, &c.hist)
	if srvC != nil {
		if serr := srvC.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	for _, m := range cpuModules {
		rep.set("cpu."+m+"_us_per_op", "us", float64(cpuByModule[m])/1e3/float64(loadOps))
	}
	rep.set("runtime.alloc_bytes_per_op", "B", allocPerOp)
	rep.set("salnet.batched_ops_per_get", "ops", batchedPerGet)

	// Layer figures from the A and B passes.
	rep.set("salnet.get_us", "us", accA.meanUs(0))
	rep.set("salnet.put_us", "us", accA.meanUs(1))
	rep.set("salnet.get_overhead_us", "us", accA.meanUs(0)-accB.meanUs(0))
	rep.set("salnet.put_overhead_us", "us", accA.meanUs(1)-accB.meanUs(1))
	rep.set("difs.get_us", "us", accB.meanUs(0))
	rep.set("difs.put_us", "us", accB.meanUs(1))
	rep.set("difs.get_self_us", "us", selfUs(accB, 0))
	rep.set("difs.put_self_us", "us", selfUs(accB, 1))
	rep.set("difs.get_allocs", "allocs", accB.per(accB.allocs, 0))
	rep.set("difs.put_allocs", "allocs", accB.per(accB.allocs, 1))
	rep.set("difs.put_alloc_bytes", "B", accB.per(accB.allocB, 1))
	rep.set("difs.device_reads_per_get", "calls", accB.per(accB.reads, 0))
	rep.set("difs.device_writes_per_put", "calls", accB.per(accB.writes, 1))
	rep.set("dev.read_us", "us", spanMeanUs(dn0[0], dns0[0], tr.devN[0].Load(), tr.devNs[0].Load()))
	rep.set("dev.write_us", "us", spanMeanUs(dn0[1], dns0[1], tr.devN[1].Load(), tr.devNs[1].Load()))
	rep.set("dev.bytes_per_user_byte", "B/B", perUserByte(accB.putBytesDev, lrB.putBytes))
	d := func(n string) float64 { return float64(c1[n] - c0[n]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rep.set("core.flash_writes_per_host_write", "programs", ratio(d("core.flash_writes"), d("core.host_writes")))
	rep.set("core.gc_relocations_per_host_write", "oPages", ratio(d("core.gc_relocations"), d("core.host_writes")))
	rep.set("core.read_retries_per_host_read", "retries", ratio(d("core.read_retries"), d("core.host_reads")))
	rep.set("ecc.corrections_per_host_read", "sectors", ratio(d("core.ecc_corrections"), d("core.host_reads")))
	rep.set("ecc.erasure_decodes_per_host_read", "sectors", ratio(d("core.ecc_erasure_decodes"), d("core.host_reads")))

	// B: one traced restart-and-rebuild cycle.
	gets0 := tr.storeN[opGet].Load()
	var cs cycleStats
	tr.enabled.Store(true)
	recs, err := faultCycle(w, b.f, b.ks, 0, &cs, rep)
	tr.enabled.Store(false)
	if err != nil {
		return nil, fmt.Errorf("traced cycle: %w", err)
	}
	b.hist = append(b.hist, recs...)
	for i, name := range []string{"store.get_us", "store.put_us", "store.list_us"} {
		rep.set(name, "us", spanMeanUs(s0n[i], s0ns[i], tr.storeN[i].Load(), tr.storeNs[i].Load()))
	}
	rep.set("store.gets_per_object", "gets", ratio(float64(tr.storeN[opGet].Load()-gets0), float64(cs.objects)))
	rep.set("difs.recover_us_per_object", "us", ratio(float64(cs.recoverNs)/1e3, float64(cs.objects)))
	rep.set("difs.repair_us_per_chunk", "us", ratio(float64(cs.repairNs)/1e3, float64(cs.copies)))

	readUs, writeUs, ssdUncorrectable, err := replayOnSSD(w, tr.calls)
	if err != nil {
		return nil, fmt.Errorf("ssd replay: %w", err)
	}
	rep.set("ssd.read_us", "us", readUs)
	rep.set("ssd.write_us", "us", writeUs)
	encNs, decNs, err := wireCost(a.ks, w.size)
	if err != nil {
		return nil, err
	}
	rep.set("wire.encode_ns", "ns", encNs)
	rep.set("wire.decode_ns", "ns", decNs)

	for _, x := range []built{a, b, c} {
		for _, v := range checkHistory(x.hist, w.keys, maxMessages) {
			rep.violate("history: %s", v)
		}
		for _, v := range x.f.c.CheckInvariants() {
			rep.violate("invariant: %s", v)
		}
	}
	for _, lm := range layerMetrics {
		if m, ok := rep.metrics[lm.name]; !ok || m.Unit != lm.unit {
			return nil, fmt.Errorf("traced run did not report %s in %s", lm.name, lm.unit)
		}
	}
	if len(rep.metrics) != len(layerMetrics) {
		return nil, fmt.Errorf("traced run reported %d metrics, want %d", len(rep.metrics), len(layerMetrics))
	}
	rep.note("traced: %d ops per single-stream pass; %d ops in the profiled closed loop; %d device calls replayed on ssd, %d of its reads uncorrectable",
		n, loadOps, len(tr.calls), ssdUncorrectable)
	return rep, nil
}

// traceOverhead measures what the probes cost: about n single-stream ops on
// f, in pairs of equal chunks that replay the same op sequence, one chunk
// with tracing on (device and store spans, per-op accounting as in the
// traced passes) and one with it off, the order alternating from pair to
// pair. Chunks of one pair run back to back, so a slow stretch of the host
// hits both; the result is the median over pairs of the traced chunk's mean
// latency against the untraced one's, in percent.
func traceOverhead(w workload, f *fleet, ks *keyspace, api kvAPI, tr *tracer, seed uint64, n int, rep *report, hist *[]opRec) float64 {
	const pairs = 100
	chunk := max(n/(2*pairs), 16)
	var pct []float64
	for p := 0; p < pairs; p++ {
		var mean [2]float64 // [untraced, traced]
		for i := 0; i < 2; i++ {
			traced := (i + p) % 2
			var acct *opAcct
			if traced == 1 {
				acct = &opAcct{tr: tr, f: f}
			}
			tr.enabled.Store(traced == 1)
			lr := runLoad(loadCfg{api: api, ks: ks, mix: &w.mix, streams: 1, seed: seed + uint64(p),
				deadline: time.Now().Add(time.Hour), maxOps: chunk, acct: acct})
			tr.enabled.Store(false)
			absorb(rep, "overhead pass", lr, hist)
			mean[traced] = meanLatUs(lr)
		}
		pct = append(pct, (mean[1]/mean[0]-1)*100)
	}
	return median(pct)
}

// meanLatUs is the mean latency of a pass's successful ops.
func meanLatUs(lr *loadResult) float64 {
	var sum int64
	for _, l := range lr.getLat {
		sum += l
	}
	for _, l := range lr.putLat {
		sum += l
	}
	return float64(sum) / float64(max(len(lr.getLat)+len(lr.putLat), 1)) / 1e3
}

// absorb adds a pass's outcome to the report and its records to a history.
func absorb(rep *report, pass string, lr *loadResult, hist *[]opRec) {
	rep.attempted += lr.attempted
	rep.failed += lr.failed
	for _, b := range lr.badValues {
		rep.violate("%s: %s", pass, b)
	}
	*hist = append(*hist, lr.recs...)
}

// selfUs is difs's own time per op: the op span minus the device spans
// nested in it.
func selfUs(a *opAcct, k int) float64 {
	if a.n[k] == 0 {
		return 0
	}
	return float64(a.lat[k]-a.dev[k]) / float64(a.n[k]) / 1e3
}

// profiledLoad serves the workload's closed loop on f under the CPU
// profiler and returns CPU nanoseconds per module, the ops completed, heap
// bytes allocated per op, and coalesced GETs per GET served.
func profiledLoad(w workload, f *fleet, ks *keyspace, api kvAPI, seed uint64, dur time.Duration, rep *report, hist *[]opRec) (map[string]int64, int, float64, float64, error) {
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	b0 := f.counter("net.server.batched_ops")
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, 0, 0, 0, err
	}
	lr := runLoad(loadCfg{api: api, ks: ks, mix: &w.mix, streams: w.outstanding, seed: seed, deadline: time.Now().Add(dur)})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	absorb(rep, "profiled pass", lr, hist)
	if lr.ops() == 0 {
		return nil, 0, 0, 0, fmt.Errorf("profiled pass completed no operations")
	}
	byMod, err := cpuByModule(prof.Bytes())
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("cpu profile: %w", err)
	}
	gets := len(lr.getLat)
	batched := 0.0
	if gets > 0 {
		batched = float64(f.counter("net.server.batched_ops")-b0) / float64(gets)
	}
	return byMod, lr.ops(), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(lr.ops()), batched, nil
}

// replayOnSSD replays a recorded device-call stream against baseline ssd
// devices with the same flash geometry, wear and ECC as the fleet's core
// devices (RAM fleets replay onto the fresh core geometry). Each node gets
// one ssd; a call's (minidisk, LBA) maps onto the ssd's single volume. Every
// address the stream reads is written first, untimed, so reads hit data.
func replayOnSSD(w workload, calls []devCall) (readUs, writeUs float64, uncorrectable int, err error) {
	kind := w.fleet
	mdPages := coreConfig(kind, 0).MSizeOPages
	if kind == fleetMem {
		kind, mdPages = fleetDurable, memLBAs
	}
	devs := make([]*ssd.Device, fleetNodes)
	for i := range devs {
		cc := coreConfig(kind, i)
		cfg := ssd.DefaultConfig()
		cfg.Flash = cc.Flash
		cfg.RealECC = cc.RealECC
		cfg.Seed = cc.Seed
		if devs[i], err = ssd.New(cfg, sim.NewEngine()); err != nil {
			return 0, 0, 0, err
		}
		defer devs[i].Close()
	}
	addr := func(c devCall) int {
		return (int(c.md)*mdPages + int(c.lba)) % devs[c.node].LBAs()
	}
	buf := make([]byte, blockdev.OPageSize)
	r := rng{s: 7}
	fill := func() {
		for i := 0; i+8 <= len(buf); i += 8 {
			v := r.next()
			for j := 0; j < 8; j++ {
				buf[i+j] = byte(v >> (8 * j))
			}
		}
	}
	seen := map[[2]int]bool{}
	for _, c := range calls {
		k := [2]int{int(c.node), addr(c)}
		if !c.write && !seen[k] {
			seen[k] = true
			fill()
			if err := devs[c.node].Write(0, k[1], buf); err != nil {
				return 0, 0, 0, fmt.Errorf("warm node %d lba %d: %w", c.node, k[1], err)
			}
		}
	}
	var n, ns [2]int64
	for _, c := range calls {
		dev := devs[c.node]
		k := 0
		if c.write {
			k = 1
			fill()
		}
		t0 := time.Now()
		if c.write {
			err = dev.Write(0, addr(c), buf)
		} else {
			err = dev.Read(0, addr(c), buf)
		}
		ns[k] += int64(time.Since(t0))
		n[k]++
		// A baseline device on worn flash fails reads Salamander's
		// tiredness levels would have kept; those are counted, not fatal.
		if errors.Is(err, blockdev.ErrUncorrectable) && !c.write {
			uncorrectable++
		} else if err != nil {
			return 0, 0, 0, fmt.Errorf("node %d lba %d: %w", c.node, addr(c), err)
		}
	}
	return spanMeanUs(0, 0, n[0], ns[0]), spanMeanUs(0, 0, n[1], ns[1]), uncorrectable, nil
}

// wireCost times wire.AppendFrame and wire.Decode over the workload's own
// frame shapes: GET and PUT requests for its keys and their responses.
func wireCost(ks *keyspace, size int) (encNs, decNs float64, err error) {
	const rounds = 100000
	val := make([]byte, size)
	var frames []wire.Frame
	for i := 0; i < 64; i++ {
		key := []byte(ks.names[i%len(ks.names)])
		fillValue(val, ks.names[i%len(ks.names)], uint64(i+1))
		payload := append([]byte(nil), val...)
		frames = append(frames,
			wire.Frame{ID: uint64(4*i + 1), Op: wire.OpGet, Key: key},
			wire.Frame{ID: uint64(4*i + 2), Op: wire.OpGet, Payload: payload},
			wire.Frame{ID: uint64(4*i + 3), Op: wire.OpPut, Key: key, Payload: payload},
			wire.Frame{ID: uint64(4*i + 4), Op: wire.OpPut})
	}
	encoded := make([][]byte, len(frames))
	for i := range frames {
		if encoded[i], err = wire.AppendFrame(nil, &frames[i]); err != nil {
			return 0, 0, err
		}
	}
	buf := make([]byte, 0, size+256)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		f := &frames[r%len(frames)]
		if buf, err = wire.AppendFrame(buf[:0], f); err != nil {
			return 0, 0, err
		}
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / rounds
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		e := encoded[r%len(encoded)]
		f, derr := wire.Decode(e[4:])
		if derr != nil {
			return 0, 0, derr
		}
		if f.ID != frames[r%len(frames)].ID {
			return 0, 0, fmt.Errorf("wire: decoded id %d, want %d", f.ID, frames[r%len(frames)].ID)
		}
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / rounds
	return encNs, decNs, nil
}

// layerMetric is one per-layer metric of the traced run and the end-to-end
// metric (on which workload) a change to its layer should move.
type layerMetric struct {
	name, unit, moves string
}

var layerMetrics = []layerMetric{
	{"wire.encode_ns", "ns", "ops_s, get_p50_us on kv-mem"},
	{"wire.decode_ns", "ns", "ops_s, get_p50_us on kv-mem"},
	{"salnet.get_us", "us", "ops_s, get_p50_us on kv-mem; none on restart-rebuild"},
	{"salnet.put_us", "us", "ops_s, put_p50_us on kv-mem; none on restart-rebuild"},
	{"salnet.get_overhead_us", "us", "ops_s, get_p50_us on kv-mem; none on restart-rebuild"},
	{"salnet.put_overhead_us", "us", "ops_s, put_p50_us on kv-mem; none on restart-rebuild"},
	{"salnet.batched_ops_per_get", "ops", "ops_s, get_p50_us on kv-mem"},
	{"difs.get_us", "us", "get_p50_us, cpu_us_per_op on kv-mem"},
	{"difs.put_us", "us", "put_p50_us, cpu_us_per_op on kv-mem"},
	{"difs.get_self_us", "us", "get_p50_us, cpu_us_per_op on kv-mem"},
	{"difs.put_self_us", "us", "put_p50_us, cpu_us_per_op on kv-mem"},
	{"difs.get_allocs", "allocs", "cpu_us_per_op on kv-mem"},
	{"difs.put_allocs", "allocs", "cpu_us_per_op on kv-mem"},
	{"difs.put_alloc_bytes", "B", "cpu_us_per_op on kv-mem"},
	{"difs.device_reads_per_get", "calls", "get_p50_us on kv-worn"},
	{"difs.device_writes_per_put", "calls", "put_p50_us on kv-worn, media_bytes_per_user_byte"},
	{"difs.recover_us_per_object", "us", "recover_s on restart-rebuild"},
	{"difs.repair_us_per_chunk", "us", "rebuild_mb_s on restart-rebuild"},
	{"dev.read_us", "us", "get_p50_us, ops_s on kv-worn"},
	{"dev.write_us", "us", "put_p50_us, ops_s on kv-worn"},
	{"dev.bytes_per_user_byte", "B/B", "media_bytes_per_user_byte on kv-worn"},
	{"ssd.read_us", "us", "none (baseline device beside dev.read_us)"},
	{"ssd.write_us", "us", "none (baseline device beside dev.write_us)"},
	{"core.flash_writes_per_host_write", "programs", "media_bytes_per_user_byte on kv-worn, restart-rebuild"},
	{"core.gc_relocations_per_host_write", "oPages", "media_bytes_per_user_byte on kv-worn, restart-rebuild"},
	{"core.read_retries_per_host_read", "retries", "get_p50_us on kv-worn"},
	{"ecc.corrections_per_host_read", "sectors", "get_p50_us, ops_s on kv-worn only"},
	{"ecc.erasure_decodes_per_host_read", "sectors", "get_p50_us, ops_s on kv-worn only"},
	{"store.get_us", "us", "recover_s on restart-rebuild"},
	{"store.put_us", "us", "recover_s, put_p50_us on restart-rebuild"},
	{"store.list_us", "us", "recover_s on restart-rebuild"},
	{"store.gets_per_object", "gets", "recover_s on restart-rebuild"},
	{"cpu.wire_us_per_op", "us", "cpu_us_per_op on kv-mem"},
	{"cpu.salnet_us_per_op", "us", "cpu_us_per_op on kv-mem"},
	{"cpu.difs_us_per_op", "us", "cpu_us_per_op on kv-mem"},
	{"cpu.core_us_per_op", "us", "cpu_us_per_op on kv-worn"},
	{"cpu.ftl_us_per_op", "us", "cpu_us_per_op on kv-worn"},
	{"cpu.flash_us_per_op", "us", "cpu_us_per_op on kv-worn"},
	{"cpu.ecc_us_per_op", "us", "cpu_us_per_op on kv-worn"},
	{"cpu.store_us_per_op", "us", "cpu_us_per_op on restart-rebuild"},
	{"cpu.runtime_us_per_op", "us", "cpu_us_per_op on every workload"},
	{"cpu.harness_us_per_op", "us", "none (the benchmark's own share)"},
	{"cpu.other_us_per_op", "us", "cpu_us_per_op on every workload"},
	{"runtime.alloc_bytes_per_op", "B", "cpu_us_per_op on every workload"},
	{"trace.overhead_pct", "%", "none (cost of the traced run's probes)"},
}
