package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets of the CPU split: the program's modules, the
// runtime's allocator and collector, the benchmark itself, and everything
// else (scheduler, network poller, stdlib work no module frame called).
var cpuModules = []string{"wire", "salnet", "difs", "core", "ftl", "flash", "ecc", "store", "runtime", "harness", "other"}

// gcFrames mark a sample as allocation or collection work wherever they sit
// in the stack.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
	"runtime.scanobject", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.newobject", "runtime.makeslice", "runtime.growslice",
}

// moduleOf attributes one sample's stack, innermost frame first: any
// allocator or collector frame makes it "runtime"; otherwise the innermost
// frame of a program module or of the benchmark names the bucket.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "harness"
		}
		if rest, ok := strings.CutPrefix(fn, "salamander/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, m := range cpuModules[:8] {
				if m == mod {
					return m
				}
			}
		}
	}
	return "other"
}

// cpuByModule parses a runtime/pprof CPU profile (gzipped profile.proto)
// and sums CPU nanoseconds per module bucket.
func cpuByModule(raw []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		samples   [][]uint64
		values    [][]int64
		valueType int
		typeIdx   []int64 // sample_type entries' type string indexes
	)
	err = eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch {
				case n == 1 && wt == 2:
					return eachVarint(b, func(x uint64) { locs = append(locs, x) })
				case n == 1:
					locs = append(locs, v)
				case n == 2 && wt == 2:
					return eachVarint(b, func(x uint64) { vals = append(vals, int64(x)) })
				case n == 2:
					vals = append(vals, int64(v))
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, locs)
			values = append(values, vals)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's second sample type is cpu/nanoseconds.
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueType = i
		}
	}
	out := map[string]int64{}
	for i, locs := range samples {
		if valueType >= len(values[i]) {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, fid := range locFuncs[l] {
				if si := funcName[fid]; si >= 0 && int(si) < len(strs) {
					stack = append(stack, strs[si])
				}
			}
		}
		out[moduleOf(stack)] += values[i][valueType]
	}
	return out, nil
}

// eachField walks a protobuf message: fn gets the field number, wire type,
// and the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wt, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, wt, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
