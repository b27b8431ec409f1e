package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: each sample's stack as function names, innermost first, and its
// sample count.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	count int64
	stack []string // innermost first, inlined frames expanded
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes it
// (the standard library has no public decoder).
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{count: s.values[0]}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value and (for length-delimited fields)
// payload.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
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

// appendPacked appends a repeated varint field that may be packed.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// cpuShares computes the *_cpu_share metrics: the share of all CPU
// samples whose stack includes the layer (cumulative), or whose
// innermost frame is in it (flat) where the layer's callees belong to
// other layers.
func cpuShares(p *cpuProfile) map[string]float64 {
	type layer struct {
		name string
		flat bool
		in   func(fn string) bool
		not  func(fn string) bool // stacks with such a frame do not count
	}
	prefix := func(ps ...string) func(string) bool {
		return func(fn string) bool {
			for _, p := range ps {
				if strings.HasPrefix(fn, p) {
					return true
				}
			}
			return false
		}
	}
	const pkg = "svard/internal/"
	tracker := prefix(pkg + "sim.(*secTracker)")
	layers := []layer{
		{name: "memctrl.next_event_cpu_share", in: prefix(pkg + "memctrl.(*Controller).NextEvent")},
		{name: "memctrl.schedule_cpu_share", in: prefix(pkg + "memctrl.(*Controller).schedule")},
		{name: "cpu.tick_cpu_share", in: prefix(pkg + "cpu.(*Core).Tick")},
		{name: "sim.tracker_cpu_share", in: tracker},
		{name: "sim.engine_cpu_share", flat: true, in: func(fn string) bool {
			return strings.HasPrefix(fn, pkg+"sim.") && !tracker(fn)
		}},
		{name: "mitigation.cpu_share", in: prefix(pkg + "mitigation")},
		{name: "profile.cpu_share", in: prefix(pkg+"profile.", pkg+"disturb.")},
		{name: "population.cpu_share", in: prefix(pkg + "population.")},
		{name: "server.cpu_share", in: prefix(pkg+"server.", pkg+"client.", "net/http."), not: prefix(pkg + "sim.")},
	}
	var total int64
	counts := make([]int64, len(layers))
	for _, s := range p.samples {
		total += s.count
		for i, l := range layers {
			hit := false
			if l.flat {
				hit = len(s.stack) > 0 && l.in(s.stack[0])
			} else {
				for _, fn := range s.stack {
					if l.in(fn) {
						hit = true
						break
					}
				}
			}
			if hit && l.not != nil {
				for _, fn := range s.stack {
					if l.not(fn) {
						hit = false
						break
					}
				}
			}
			if hit {
				counts[i] += s.count
			}
		}
	}
	out := map[string]float64{}
	for i, l := range layers {
		out[l.name] = ratio(float64(counts[i]), float64(total))
	}
	return out
}
