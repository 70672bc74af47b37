package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto a runtime/pprof CPU
// profile is written in: just enough to walk each sample's stack as
// function names. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (p *pbuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if uint64(len(p.b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return
}

// repeated appends a repeated integer field that may arrive packed
// (data) or as a single varint (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// stackSample is one profile sample: its weight and the function names
// of its stack, innermost first (inlined frames expanded).
type stackSample struct {
	weight int64
	stack  []string
}

// parseProfile decodes a gzipped CPU profile into weighted stacks. The
// weight is the sample's last value (CPU nanoseconds).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch field {
		case 2: // sample
			var s rawSample
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					line := pbuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// shareLayers are the layers cpu_share reports, one per internal
// package on a workload's run path.
var shareLayers = []string{
	"eventq", "simkern", "vtime", "monitor", "netsim", "rbcast", "consensus", "fault",
	"membership", "replication", "session", "shard", "txn", "pubsub", "dispatcher",
	"sched", "trace", "metrics", "load", "cluster",
}

// cpuShares attributes every sample to the innermost frame under
// hades/internal/<layer> and returns each layer's share of the total.
// Samples with no such frame go to runtime_gc when the stack is the
// collector's own (background mark, sweep, scavenge) and to other
// otherwise; allocation and GC assist inside a layer's call count
// against that layer.
func cpuShares(samples []stackSample) map[string]float64 {
	const prefix = "hades/internal/"
	sum := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.weight
		bucket := "other"
		for _, fn := range s.stack {
			if rest, ok := strings.CutPrefix(fn, prefix); ok {
				if i := strings.IndexByte(rest, '.'); i > 0 {
					bucket = rest[:i]
				}
				break
			}
			if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
				strings.HasPrefix(fn, "runtime.bgscavenge") {
				bucket = "runtime_gc"
			}
		}
		sum[bucket] += s.weight
	}
	out := map[string]float64{"runtime_gc": 0, "other": 0}
	known := map[string]bool{"runtime_gc": true, "other": true}
	for _, l := range shareLayers {
		out[l] = 0
		known[l] = true
	}
	for bucket, w := range sum {
		if !known[bucket] {
			bucket = "other" // a layer off the list (heug, storage, ...)
		}
		out[bucket] += ratio(float64(w), float64(total))
	}
	return out
}
