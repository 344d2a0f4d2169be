package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"salamander/internal/difs"
)

// epoch anchors every recorded time on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// kvAPI is the op surface a load stream drives: salnet.Client over loopback,
// or the cluster itself.
type kvAPI interface {
	Put(ctx context.Context, key string, data []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
}

// direct drives the cluster in-process through the same entry points the
// server dispatches to (a PUT is an upsert, as on the wire).
type direct struct{ c *difs.Cluster }

func (d direct) Put(ctx context.Context, key string, data []byte) error {
	return d.c.ReplaceCtx(ctx, key, data)
}

func (d direct) Get(ctx context.Context, key string) ([]byte, error) {
	return d.c.GetCtx(ctx, key)
}

// keyspace is one shared set of keys with the last version issued per key.
type keyspace struct {
	names []string
	vers  []atomic.Uint64
	size  int
}

func newKeyspace(n, size int) *keyspace {
	ks := &keyspace{names: make([]string, n), vers: make([]atomic.Uint64, n), size: size}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("k%05d", i)
	}
	return ks
}

// prefill writes version 1 of every key and returns the matching history.
func (ks *keyspace) prefill(ctx context.Context, api kvAPI) ([]opRec, error) {
	buf := make([]byte, ks.size)
	recs := make([]opRec, 0, len(ks.names))
	for i, name := range ks.names {
		v := ks.vers[i].Add(1)
		fillValue(buf, name, v)
		t0 := now()
		if err := api.Put(ctx, name, buf); err != nil {
			return nil, fmt.Errorf("prefill %s: %w", name, err)
		}
		recs = append(recs, opRec{key: int32(i), put: true, ok: true, ver: v, issue: t0, finish: now()})
	}
	return recs, nil
}

// mix is a workload's operation mix: read share and key skew over one
// keyspace shared by every stream.
type mix struct {
	readShare float64
	// zipf > 0 draws keys zipf-distributed with that exponent; hotFrac > 0
	// sends that share of ops to the hottest tenth of the keys; neither
	// means uniform.
	zipf    float64
	hotFrac float64
	cdf     []float64
}

func (m *mix) init(keys int) {
	if m.zipf <= 0 {
		return
	}
	m.cdf = make([]float64, keys)
	sum := 0.0
	for i := range m.cdf {
		sum += 1 / math.Pow(float64(i+1), m.zipf)
		m.cdf[i] = sum
	}
	for i := range m.cdf {
		m.cdf[i] /= sum
	}
}

func (m *mix) key(r *rng, keys int) int {
	switch {
	case m.cdf != nil:
		u := r.float()
		return min(sort.SearchFloat64s(m.cdf, u), keys-1)
	case m.hotFrac > 0:
		hot := (keys + 9) / 10
		if r.float() < m.hotFrac {
			return r.intn(hot)
		}
		return hot + r.intn(keys-hot)
	default:
		return r.intn(keys)
	}
}

// loadCfg describes one closed-loop pass: streams goroutines, each issuing
// its next operation only when the previous one returned.
type loadCfg struct {
	api      kvAPI
	ks       *keyspace
	mix      *mix
	streams  int
	seed     uint64
	deadline time.Time
	// maxOps stops each stream after this many operations (0 = no limit).
	maxOps int
	// acct, when set, accounts every op's nested layer work; it needs a
	// single stream so each nested span belongs to the op in flight.
	acct *opAcct
	// measure takes the pass's figures over the time from warmup after
	// its start to the deadline.
	measure bool
	warmup  time.Duration
}

// span is the measured part of a pass: its length, the ops that completed
// in it with their latencies, and the process CPU time it took.
type span struct {
	dur            time.Duration
	ops            int
	getLat, putLat []int64
	cpu            time.Duration
}

// add accumulates another span into s.
func (s *span) add(o span) {
	s.dur += o.dur
	s.ops += o.ops
	s.getLat = append(s.getLat, o.getLat...)
	s.putLat = append(s.putLat, o.putLat...)
	s.cpu += o.cpu
}

// loadResult is what a pass measured.
type loadResult struct {
	recs           []opRec
	getLat, putLat []int64
	attempted      int
	failed         int
	badValues      []string
	putBytes       uint64
	measured       span // set when loadCfg.measure
}

func (r *loadResult) ops() int { return r.attempted - r.failed }

// runLoad runs one closed-loop pass and returns when every stream stopped.
func runLoad(cfg loadCfg) *loadResult {
	type streamOut struct {
		recs           []opRec
		getLat, putLat []int64
		failed         int
		bad            []string
		putBytes       uint64
	}
	outs := make([]streamOut, cfg.streams)
	var wg sync.WaitGroup
	start := time.Now()
	// The measured span runs from bounds[0] to bounds[1]; cpuAt holds the
	// process CPU time at each.
	bounds := [2]time.Time{start.Add(cfg.warmup), cfg.deadline}
	var cpuAt [2]time.Duration
	if cfg.measure {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, b := range bounds {
				time.Sleep(time.Until(b))
				cpuAt[k] = cpuTime()
			}
		}()
	}
	for s := 0; s < cfg.streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out := &outs[s]
			r := rng{s: cfg.seed*0x100000001b3 + uint64(s)*0x9e3779b97f4a7c15 + 1}
			ks := cfg.ks
			buf := make([]byte, ks.size)
			scratch := make([]byte, ks.size)
			ctx := context.Background()
			for n := 0; cfg.maxOps == 0 || n < cfg.maxOps; n++ {
				if time.Now().After(cfg.deadline) {
					break
				}
				k := cfg.mix.key(&r, len(ks.names))
				name := ks.names[k]
				rec := opRec{key: int32(k)}
				if r.float() >= cfg.mix.readShare {
					rec.put = true
					rec.ver = ks.vers[k].Add(1)
					fillValue(buf, name, rec.ver)
					cfg.acct.begin()
					rec.issue = now()
					err := cfg.api.Put(ctx, name, buf)
					rec.finish = now()
					cfg.acct.end(true, rec.finish-rec.issue)
					rec.ok = err == nil
					if rec.ok {
						out.putLat = append(out.putLat, rec.finish-rec.issue)
						out.putBytes += uint64(len(buf))
					} else {
						out.failed++
						out.bad = appendLimited(out.bad, fmt.Sprintf("put %s v%d: %v", name, rec.ver, err))
					}
				} else {
					cfg.acct.begin()
					rec.issue = now()
					data, err := cfg.api.Get(ctx, name)
					rec.finish = now()
					cfg.acct.end(false, rec.finish-rec.issue)
					if err != nil {
						out.failed++
						out.bad = appendLimited(out.bad, fmt.Sprintf("get %s: %v", name, err))
					} else {
						ver, verr := checkValue(data, name, ks.size, scratch)
						rec.ver = ver
						if verr != nil {
							out.bad = appendLimited(out.bad, verr.Error())
						} else {
							rec.ok = true
							out.getLat = append(out.getLat, rec.finish-rec.issue)
						}
					}
				}
				out.recs = append(out.recs, rec)
			}
		}(s)
	}
	wg.Wait()
	res := &loadResult{}
	for _, o := range outs {
		res.recs = append(res.recs, o.recs...)
		res.getLat = append(res.getLat, o.getLat...)
		res.putLat = append(res.putLat, o.putLat...)
		res.failed += o.failed
		res.putBytes += o.putBytes
		for _, b := range o.bad {
			res.badValues = appendLimited(res.badValues, b)
		}
	}
	res.attempted = len(res.recs)
	if cfg.measure {
		lo, hi := int64(bounds[0].Sub(epoch)), int64(bounds[1].Sub(epoch))
		m := span{dur: bounds[1].Sub(bounds[0]), cpu: cpuAt[1] - cpuAt[0]}
		for _, r := range res.recs {
			if r.finish < lo || r.finish >= hi || !r.ok {
				continue
			}
			m.ops++
			if r.put {
				m.putLat = append(m.putLat, r.finish-r.issue)
			} else {
				m.getLat = append(m.getLat, r.finish-r.issue)
			}
		}
		res.measured = m
	}
	return res
}

// sweep reads every key once (a final or post-rebuild check) and returns
// the reads as history records.
func sweep(api kvAPI, ks *keyspace) (recs []opRec, failed int, bad []string) {
	scratch := make([]byte, ks.size)
	ctx := context.Background()
	for k, name := range ks.names {
		rec := opRec{key: int32(k), issue: now()}
		data, err := api.Get(ctx, name)
		rec.finish = now()
		if err != nil {
			failed++
			bad = appendLimited(bad, fmt.Sprintf("sweep get %s: %v", name, err))
		} else if ver, verr := checkValue(data, name, ks.size, scratch); verr != nil {
			rec.ver = ver
			bad = appendLimited(bad, verr.Error())
		} else {
			rec.ver, rec.ok = ver, true
		}
		recs = append(recs, rec)
	}
	return recs, failed, bad
}

const maxMessages = 8

func appendLimited(list []string, msg string) []string {
	if len(list) >= maxMessages {
		return list
	}
	return append(list, msg)
}

// quantile returns the q-quantile of the samples (nearest rank).
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gcQuiesce collects garbage left by earlier phases so it is not charged to
// the next measured one.
func gcQuiesce() { runtime.GC() }
