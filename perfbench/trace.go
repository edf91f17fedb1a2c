package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// interval is a half-open [start, end) stretch of ns since the epoch.
type interval struct{ start, end int64 }

// union merges the spans' intervals into sorted disjoint ones.
func union(spans []span) []interval {
	iv := make([]interval, len(spans))
	for i, s := range spans {
		iv[i] = interval{s.start, s.start + s.dur}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, x.end)
			continue
		}
		out = append(out, x)
	}
	return out
}

func totalLen(iv []interval) int64 {
	var t int64
	for _, x := range iv {
		t += x.end - x.start
	}
	return t
}

// overlapLen is the length covered by both sorted disjoint lists.
func overlapLen(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].start, b[j].start), min(a[i].end, b[j].end)
		if hi > lo {
			t += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return t
}

// layerTimes is the traced phase's spans grouped by kind.
type layerTimes struct {
	byKind [numSpanKinds][]span
	total  [numSpanKinds]int64 // summed span durations, ns
	// served is the wall time during which at least one client call was
	// outstanding; untimed the part of it no layer span covers.
	served, untimed int64
}

func analyze(spans []span) *layerTimes {
	lt := &layerTimes{}
	var layers []span
	for _, s := range spans {
		lt.byKind[s.kind] = append(lt.byKind[s.kind], s)
		lt.total[s.kind] += s.dur
		if s.kind != spanCall {
			layers = append(layers, s)
		}
	}
	calls := union(lt.byKind[spanCall])
	lt.served = totalLen(calls)
	lt.untimed = lt.served - overlapLen(calls, union(layers))
	return lt
}

// durations returns the durations of every span of one kind.
func (lt *layerTimes) durations(kind uint8) []int64 {
	out := make([]int64, len(lt.byKind[kind]))
	for i, s := range lt.byKind[kind] {
		out[i] = s.dur
	}
	return out
}

// meanMs is the mean duration of one kind's spans in ms (0 without any).
func (lt *layerTimes) meanMs(kind uint8) float64 {
	return ratio(float64(lt.total[kind]), float64(len(lt.byKind[kind]))) / 1e6
}

// printSelfTimes prints each layer's span count and self time. Layer
// spans do not nest, so a layer's self time is its total; a client
// call's self time is the served time no layer span covers.
func (lt *layerTimes) printSelfTimes(wallNs int64) {
	fmt.Printf("%-14s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self/wall")
	for k := uint8(0); k < numSpanKinds; k++ {
		self := lt.total[k]
		if k == spanCall {
			self = lt.untimed
		}
		fmt.Printf("%-14s %10d %12.3f %12.3f %10.4f\n", spanNames[k], len(lt.byKind[k]),
			float64(lt.total[k])/1e6, float64(self)/1e6, ratio(float64(self), float64(wallNs)))
	}
}

// writeSpans writes every span as one tab-separated line: kind, owner
// (client or shard index), n (ops or buckets), start_ns, dur_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, "kind\towner\tn\tstart_ns\tdur_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.owner, s.n, s.start, s.dur)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
