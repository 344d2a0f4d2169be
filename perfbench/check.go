package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// rng is splitmix64: the benchmark's own input generator, independent of
// the program's RNG so the program only ever sees generated inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// valueHeader is the prefix of every generated value: the version, then
// the hash of the key it was written under.
const valueHeader = 16

// fillValue writes the value for (key, version) into dst. The bytes are a
// pure function of the pair, so a reader can regenerate what it must see.
func fillValue(dst []byte, key string, ver uint64) {
	h := keyHash(key)
	binary.LittleEndian.PutUint64(dst[0:8], ver)
	binary.LittleEndian.PutUint64(dst[8:16], h)
	r := rng{s: h ^ (ver * 0x9e3779b97f4a7c15)}
	i := valueHeader
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], r.next())
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(dst[i:], tail[:])
	}
}

// checkValue parses the version out of a value read for key and verifies
// every byte against the regenerated value; scratch must hold size bytes.
func checkValue(got []byte, key string, size int, scratch []byte) (uint64, error) {
	if len(got) != size {
		return 0, fmt.Errorf("key %s: read %d bytes, want %d", key, len(got), size)
	}
	ver := binary.LittleEndian.Uint64(got[0:8])
	if h := binary.LittleEndian.Uint64(got[8:16]); h != keyHash(key) {
		return ver, fmt.Errorf("key %s: value belongs to another key (hash %016x)", key, h)
	}
	fillValue(scratch[:size], key, ver)
	if !bytes.Equal(got, scratch[:size]) {
		return ver, fmt.Errorf("key %s: version %d bytes differ from the value written", key, ver)
	}
	return ver, nil
}

// never is the ack time of a PUT that failed: it may still have applied, so
// it stays readable, but it never supersedes anything.
const never = math.MaxInt64

// opRec is one completed client operation in a per-key history. Times are
// nanoseconds on the benchmark's monotonic clock; a GET records the version
// its value carried (checked byte for byte when it completed).
type opRec struct {
	key    int32
	put    bool
	ok     bool
	ver    uint64
	issue  int64
	finish int64
}

// checkHistory checks a single-register history per key. Each PUT carries a
// version unique to its key; a successful GET that returned version v is
// legal only if
//   - v was issued by some PUT (the prefill PUTs are version 1), and that PUT
//     was issued before the GET completed, and
//   - no PUT w was issued after PUT(v) was acknowledged and itself
//     acknowledged before the GET was issued (v was not already overwritten).
//
// Failed PUTs count as issued but never acknowledged. It returns one message
// per violation, at most limit of them.
func checkHistory(recs []opRec, keys int, limit int) []string {
	type put struct{ issue, ack int64 }
	puts := make([]map[uint64]put, keys)
	for i := range puts {
		puts[i] = map[uint64]put{}
	}
	for _, r := range recs {
		if r.put {
			ack := r.finish
			if !r.ok {
				ack = never
			}
			puts[r.key][r.ver] = put{r.issue, ack}
		}
	}
	// Per key: PUTs sorted by issue time with a suffix minimum of ack times,
	// so "some PUT issued after t and acked before u" is one binary search.
	type index struct {
		issue  []int64
		sufAck []int64
	}
	idx := make([]index, keys)
	for k, m := range puts {
		ps := make([]put, 0, len(m))
		for _, p := range m {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].issue < ps[j].issue })
		ix := index{issue: make([]int64, len(ps)), sufAck: make([]int64, len(ps)+1)}
		ix.sufAck[len(ps)] = never
		for i := len(ps) - 1; i >= 0; i-- {
			ix.issue[i] = ps[i].issue
			ix.sufAck[i] = min(ps[i].ack, ix.sufAck[i+1])
		}
		idx[k] = ix
	}
	var bad []string
	for _, r := range recs {
		if r.put || !r.ok || len(bad) >= limit {
			continue
		}
		p, ok := puts[r.key][r.ver]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("key %d: read version %d, which no PUT issued", r.key, r.ver))
		case p.issue > r.finish:
			bad = append(bad, fmt.Sprintf("key %d: read version %d before its PUT was issued", r.key, r.ver))
		default:
			ix := idx[r.key]
			i := sort.Search(len(ix.issue), func(i int) bool { return ix.issue[i] > p.ack })
			if ix.sufAck[i] < r.issue {
				bad = append(bad, fmt.Sprintf("key %d: stale read of version %d, overwritten before the read began", r.key, r.ver))
			}
		}
	}
	return bad
}
