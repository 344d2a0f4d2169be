package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"salamander/internal/difs"
	"salamander/internal/salnet"
)

// workload is one traffic mix on one fleet. Every workload runs the same
// phases — set-up, closed-loop serving, then restart-and-rebuild cycles —
// so every end-to-end metric is measured on each; the fleet, the transport
// and the time split decide which layers carry the load.
type workload struct {
	name  string
	why   string
	fleet fleetKind
	// net serves over loopback TCP through salnet; otherwise the streams
	// call the cluster in-process, bypassing salnet and wire entirely.
	net  bool
	keys int
	size int
	mix  mix
	// outstanding is the fixed number of closed-loop streams.
	outstanding int
	// serveShare is the share of the measured time spent serving; the rest
	// runs whole restart-and-rebuild cycles.
	serveShare float64
	// rounds splits the measured time into this many rounds of serving
	// followed by at least one restart-and-rebuild cycle.
	rounds int
	// rebuilds is how many node crashes each cycle rebuilds after its
	// restart.
	rebuilds int
	// mediaOverRebuild takes media_bytes_per_user_byte over the rebuilds
	// (re-replicated bytes) instead of over serving (PUT bytes): each
	// workload charges the bytes its main phase moves.
	mediaOverRebuild bool
}

var workloads = []workload{
	{
		name:  "kv-mem",
		why:   "GET/PUT over loopback to a RAM-device cluster: salnet, wire, difs placement and allocation carry the load; no ECC or flash",
		fleet: fleetMem, net: true, keys: 768, size: 4096,
		mix:         mix{readShare: 0.5, zipf: 1.1},
		outstanding: 8, serveShare: 0.7, rounds: 10, rebuilds: 1,
	},
	{
		name:  "kv-worn",
		why:   "read-heavy hot-spot serving from pre-worn flash: real BCH decode, stuck-column erasures and the device engine dominate",
		fleet: fleetWorn, net: true, keys: 256, size: 4096,
		mix:         mix{readShare: 0.8, hotFrac: 0.7},
		outstanding: 8, serveShare: 0.4, rounds: 8, rebuilds: 2,
	},
	{
		name:  "restart-rebuild",
		why:   "durable store-backed fleet: store reopen, device replay, Recover and node-crash repair, served in-process without salnet",
		fleet: fleetDurable, net: false, keys: 768, size: 4096,
		mix:         mix{readShare: 0.5},
		outstanding: 2, serveShare: 0.3, rounds: 10, rebuilds: 1, mediaOverRebuild: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// The first serving slice leaves its first serveWarmup out of the
	// metrics (connections, caches and the heap settle), later slices
	// sliceWarmup (a fresh server and connections).
	serveWarmup = time.Second
	sliceWarmup = 100 * time.Millisecond
	// serverWorkers is salsrv's default -workers.
	serverWorkers = 16
)

// replicas is the cluster's replication factor; each generated value fits
// in one chunk, so an object has exactly this many replicas.
var replicas = clusterConfig().ReplicationFactor

// report collects a run's outcome.
type report struct {
	attempted, failed int
	violations        []string
	metrics           map[string]metric
	notes             []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) violate(format string, args ...any) {
	r.violations = appendLimited(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setupFleet builds a fleet, prefills its keyspace and returns them with
// the history of the prefill and the seconds the whole set-up took.
func setupFleet(w workload) (*fleet, *keyspace, []opRec, float64, error) {
	gcQuiesce()
	t0 := time.Now()
	f, err := newFleet(w.fleet, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ks := newKeyspace(w.keys, w.size)
	hist, err := ks.prefill(context.Background(), direct{f.c})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return f, ks, hist, time.Since(t0).Seconds(), nil
}

// server is a loopback salnet server over the fleet with one pooled client.
type server struct {
	srv *salnet.Server
	cl  *salnet.Client
}

// startServer serves f over loopback with salsrv's worker count and dials
// one client with at most nproc connections.
func startServer(f *fleet) (*server, error) {
	srv := salnet.NewServer(f.c, salnet.ServerConfig{Workers: serverWorkers})
	srv.Instrument(f.reg, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl, err := salnet.Dial(salnet.ClientConfig{Addr: addr.String(), Conns: runtime.NumCPU()})
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	return &server{srv: srv, cl: cl}, nil
}

func (s *server) stop() error {
	_ = s.cl.Close() // in-flight calls are all done; nothing to lose
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// cycleStats accumulates restart-and-rebuild cycles.
type cycleStats struct {
	recoverS     []float64
	rebuildMBs   []float64
	rebuildBytes uint64
	mediaBytes   uint64
	copies       int
	crashes      int
	quarantined  int
	recoverNs    int64 // summed Recover durations (the report's own figure)
	objects      int   // objects recovered, summed
	repairNs     int64
}

// faultCycle settles pending repairs, restarts the fleet, then crashes and
// rebuilds w.rebuilds nodes in turn.
func faultCycle(w workload, f *fleet, ks *keyspace, i int, cs *cycleStats, rep *report) ([]opRec, error) {
	if _, err := f.settle(); err != nil {
		return nil, fmt.Errorf("settle before restart: %w", err)
	}
	if n := f.c.PendingRepairs(); n != 0 {
		return nil, fmt.Errorf("%d repairs pending before restart", n)
	}
	t0 := time.Now()
	rr, err := f.restart()
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	cs.recoverS = append(cs.recoverS, time.Since(t0).Seconds())
	cs.recoverNs += rr.Duration.Nanoseconds()
	cs.objects += rr.Objects
	cs.quarantined += rr.QuarantinedReplicas
	if bad := recoverMismatch(w, rr); bad != "" {
		rep.violate("cycle %d: Recover report %d objects, %d verified and %d quarantined replicas, %d bad manifests, %d torn chunks, %d lost objects, %d repairs queued: %s",
			i, rr.Objects, rr.VerifiedReplicas, rr.QuarantinedReplicas, rr.BadManifests, rr.TornChunks, len(rr.LostObjects), rr.RepairsQueued, bad)
	}
	var recs []opRec
	for k := 0; k < w.rebuilds; k++ {
		node := difs.NodeID(cs.crashes % fleetNodes)
		cs.crashes++
		r, err := crashAndRebuild(f, ks, node, cs, rep)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r...)
	}
	return recs, nil
}

// crashAndRebuild crashes a node, repairs until a pass makes no copy (the
// timed rebuild), brings the node back, trims, and reads every key.
func crashAndRebuild(f *fleet, ks *keyspace, node difs.NodeID, cs *cycleStats, rep *report) ([]opRec, error) {
	rb0, m0 := f.c.Stats().RecoveryBytes, f.mediaBytes()
	t1 := time.Now()
	if f.c.CrashNode(node) == 0 {
		return nil, fmt.Errorf("crash node %d took no targets down", node)
	}
	copies, err := f.settle()
	dt := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("rebuild after crashing node %d: %w", node, err)
	}
	if copies == 0 {
		rep.violate("crashing node %d led to no repair copies", node)
	}
	rb := uint64(f.c.Stats().RecoveryBytes - rb0)
	cs.rebuildBytes += rb
	cs.mediaBytes += f.mediaBytes() - m0
	cs.copies += copies
	cs.repairNs += dt.Nanoseconds()
	cs.rebuildMBs = append(cs.rebuildMBs, float64(rb)/1e6/dt.Seconds())
	if f.c.RestartNode(node) == 0 {
		return nil, fmt.Errorf("node %d did not rejoin", node)
	}
	if _, err := f.settle(); err != nil {
		return nil, fmt.Errorf("trim after node %d rejoined: %w", node, err)
	}
	if n := f.c.PendingRepairs(); n != 0 {
		rep.violate("%d repairs still pending after node %d rejoined", n, node)
	}
	recs, failed, bad := sweep(direct{f.c}, ks)
	rep.attempted += len(recs)
	rep.failed += failed
	for _, b := range bad {
		rep.violate("after node %d rejoined: %s", node, b)
	}
	return recs, nil
}

// recoverMismatch checks a Recover report against the prefill: every object
// back, no manifest refused, nothing lost, and all objects x replicas
// replicas verified. On the worn fleet a replica may instead be quarantined
// when its flash no longer decodes — the media errors replication exists to
// absorb — so there every manifest replica must be verified or quarantined,
// and only quarantined chunks may be left for repair.
func recoverMismatch(w workload, rr *difs.RecoveryReport) string {
	want := w.keys * replicas
	switch {
	case rr.Objects != w.keys:
		return fmt.Sprintf("want %d objects", w.keys)
	case rr.BadManifests != 0 || rr.TornChunks != 0 || len(rr.LostObjects) != 0:
		return "want no bad manifest, torn chunk or lost object"
	case w.fleet == fleetWorn:
		if rr.VerifiedReplicas+rr.QuarantinedReplicas != want || rr.RepairsQueued > rr.QuarantinedReplicas {
			return fmt.Sprintf("want %d replicas verified or quarantined and repairs only for quarantined ones", want)
		}
	case rr.VerifiedReplicas != want || rr.QuarantinedReplicas != 0 || rr.RepairsQueued != 0:
		return fmt.Sprintf("want %d verified replicas and nothing quarantined or queued", want)
	}
	return ""
}

// runUntraced is the measured run behind every end-to-end metric. The
// measured time is split into w.rounds rounds; each serves for a slice,
// sets up a throwaway fleet (from the second round on) and runs
// restart-and-rebuild cycles for the rest, so every figure samples the
// whole run rather than one stretch of it. Each figure is taken over all of its samples: throughput, p50s and
// CPU per op over all serving time, set-up, recovery and rebuild times as
// the median of their per-round or per-cycle samples.
func runUntraced(w workload, seed uint64, seconds int) (*report, error) {
	rep := &report{metrics: map[string]metric{}}
	w.mix.init(w.keys)
	f, ks, hist, setupS, err := setupFleet(w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{setupS}
	slots, free := f.c.Capacity()
	rep.note("fleet: %d of %d chunk slots used after prefill (%.0f%%)",
		slots-free, slots, 100*float64(slots-free)/float64(slots))
	gcQuiesce()

	total := time.Duration(seconds) * time.Second
	serveSlice := time.Duration(w.serveShare * float64(total) / float64(w.rounds))
	cycleSlice := total/time.Duration(w.rounds) - serveSlice
	var (
		served         span
		getLat, putLat []int64
		putBytes       uint64
		serveMedia     uint64
		guard          = counterSnap{}
		cs             cycleStats
		cycle          int
	)
	for r := 0; r < w.rounds; r++ {
		var api kvAPI = direct{f.c}
		var srv *server
		if w.net {
			if srv, err = startServer(f); err != nil {
				return nil, err
			}
			api = srv.cl
		}
		warmup := sliceWarmup
		if r == 0 {
			warmup = serveWarmup
		}
		c0, m0 := snapshotCounters(f), f.mediaBytes()
		lr := runLoad(loadCfg{api: api, ks: ks, mix: &w.mix, streams: w.outstanding, seed: seed + uint64(r)<<32,
			deadline: time.Now().Add(warmup + serveSlice), measure: true, warmup: warmup})
		serveMedia += f.mediaBytes() - m0
		guard.add(c0, snapshotCounters(f))
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("server drain: %w", err)
			}
		}
		hist = append(hist, lr.recs...)
		rep.attempted += lr.attempted
		rep.failed += lr.failed
		for _, b := range lr.badValues {
			rep.violate("serving: %s", b)
		}
		served.add(lr.measured)
		getLat = append(getLat, lr.getLat...)
		putLat = append(putLat, lr.putLat...)
		putBytes += lr.putBytes

		end := time.Now().Add(cycleSlice)
		if r > 0 {
			// A throwaway fleet, set up the way the first one was, so
			// setup_s is the median of samples spread over the run.
			_, _, _, s, err := setupFleet(w)
			if err != nil {
				return nil, fmt.Errorf("setup in round %d: %w", r, err)
			}
			setups = append(setups, s)
			gcQuiesce()
		}
		for ; ; cycle++ {
			recs, err := faultCycle(w, f, ks, cycle, &cs, rep)
			if err != nil {
				return nil, fmt.Errorf("cycle %d: %w", cycle, err)
			}
			hist = append(hist, recs...)
			if !time.Now().Before(end) {
				cycle++
				break
			}
		}
	}
	if served.ops == 0 {
		return nil, errors.New("serving completed no operations")
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("ops_s", "1/s", float64(served.ops)/served.dur.Seconds())
	rep.set("get_p50_us", "us", quantile(served.getLat, 0.5)/1e3)
	rep.set("put_p50_us", "us", quantile(served.putLat, 0.5)/1e3)
	rep.set("cpu_us_per_op", "us", float64(served.cpu.Nanoseconds())/1e3/float64(served.ops))
	rep.set("recover_s", "s", median(cs.recoverS))
	rep.set("rebuild_mb_s", "MB/s", median(cs.rebuildMBs))
	if w.mediaOverRebuild {
		rep.set("media_bytes_per_user_byte", "B/B", perUserByte(cs.mediaBytes, cs.rebuildBytes))
	} else {
		rep.set("media_bytes_per_user_byte", "B/B", perUserByte(serveMedia, putBytes))
	}
	mechanismGuard(w, guard, rep)
	rep.note("set-up: %d fleets, median %.3fs", len(setups), median(setups))
	rep.note("serving: %d ops measured in %d rounds over %s (%d outstanding); ungated tails: GET p99 %.0fus of %d samples, PUT p99 %.0fus of %d samples",
		served.ops, w.rounds, map[bool]string{true: "salnet loopback", false: "in-process difs"}[w.net],
		w.outstanding, quantile(getLat, 0.99)/1e3, len(getLat), quantile(putLat, 0.99)/1e3, len(putLat))
	rep.note("cycles: %d restarts, recover median %.3fs, rebuild median %.1f MB/s, %d repair copies, %d replicas quarantined by Recover",
		len(cs.recoverS), median(cs.recoverS), median(cs.rebuildMBs), cs.copies, cs.quarantined)

	finalRecs, failed, bad := sweep(direct{f.c}, ks)
	rep.attempted += len(finalRecs)
	rep.failed += failed
	for _, b := range bad {
		rep.violate("final sweep: %s", b)
	}
	hist = append(hist, finalRecs...)
	for _, v := range checkHistory(hist, w.keys, maxMessages) {
		rep.violate("history: %s", v)
	}
	for _, v := range f.c.CheckInvariants() {
		rep.violate("invariant: %s", v)
	}
	return rep, nil
}

// counterSnap holds the program counters the mechanism guards read.
type counterSnap map[string]uint64

var guardCounters = []string{"net.server.batches", "net.server.batched_ops", "core.ecc_corrections", "core.ecc_erasure_decodes",
	"core.host_reads", "core.host_writes", "core.flash_writes", "core.gc_relocations", "core.read_retries"}

func snapshotCounters(f *fleet) counterSnap {
	s := counterSnap{}
	for _, n := range guardCounters {
		s[n] = f.counter(n)
	}
	return s
}

// add accumulates the counter deltas from c0 to c1.
func (s counterSnap) add(c0, c1 counterSnap) {
	for n, v := range c1 {
		s[n] += v - c0[n]
	}
}

// mechanismGuard fails a workload whose defining layer did no work while
// serving (deltas in d), so a configuration drift cannot silently turn it
// into another workload.
func mechanismGuard(w workload, d counterSnap, rep *report) {
	switch w.fleet {
	case fleetMem:
		if d["net.server.batches"] == 0 {
			rep.violate("guard: kv-mem coalesced no GET batches")
		}
	case fleetWorn:
		if d["core.ecc_corrections"] == 0 || d["core.ecc_erasure_decodes"] == 0 {
			rep.violate("guard: worn fleet made %d ECC corrections and %d erasure decodes; both must be above zero",
				d["core.ecc_corrections"], d["core.ecc_erasure_decodes"])
		}
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
