package main

import (
	"fmt"
	"io/fs"
	"net/netip"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/study"
)

// tracer times a repetition's layers from outside, at the public seams
// the engines expose: the probe client, the accumulator, the record sink
// and the checkpoint filesystem. Every wrapper forwards exactly the
// optional interfaces its wrapped value implements, because the engines
// type-assert on them.
type tracer struct {
	// exchanges[k] is written only by shard k's goroutine (one lane per
	// shard), and read after the engine returns.
	exchanges []exchangeLog

	mu   sync.Mutex
	accs []*timedAccumulator

	sinkAppendNs, sinkFlushNs, sinkCloseNs atomic.Int64
	sinkFlushes                            atomic.Int64

	fsNs, fsSyncs, fsBytes atomic.Int64
}

type exchangeLog struct {
	each     []time.Duration // one entry per Exchange/ExchangeRTT call
	perProbe []time.Duration // summed exchange time of each probe
}

func newTracer(workers int) *tracer {
	return &tracer{exchanges: make([]exchangeLog, workers)}
}

// since adds the time elapsed since t0 to an atomic nanosecond counter.
func since(t0 time.Time, ns *atomic.Int64) { ns.Add(int64(time.Since(t0))) }

// --- probe client ---

type timedClient struct {
	inner core.Client
	log   *exchangeLog
	probe int // index into log.perProbe
}

func (c *timedClient) note(t0 time.Time) {
	d := time.Since(t0)
	c.log.each = append(c.log.each, d)
	c.log.perProbe[c.probe] += d
}

func (c *timedClient) Exchange(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, error) {
	defer c.note(time.Now())
	return c.inner.Exchange(server, q)
}

// timedRTTClient is timedClient for transports that report RTTs.
type timedRTTClient struct {
	*timedClient
	rtt core.RTTExchanger
}

func (c timedRTTClient) ExchangeRTT(server netip.AddrPort, q *dnswire.Message) ([]*dnswire.Message, time.Duration, error) {
	defer c.note(time.Now())
	return c.rtt.ExchangeRTT(server, q)
}

// wrapClient times one probe's exchanges on shard k.
func (t *tracer) wrapClient(c core.Client, k int) core.Client {
	log := &t.exchanges[k]
	tc := &timedClient{inner: c, log: log, probe: len(log.perProbe)}
	log.perProbe = append(log.perProbe, 0)
	if rtt, ok := c.(core.RTTExchanger); ok {
		return timedRTTClient{tc, rtt}
	}
	return tc
}

// --- accumulator ---

type timedAccumulator struct {
	inner                      study.Accumulator
	folds                      int
	foldNs, mergeNs, marshalNs time.Duration
}

func (t *tracer) newAccumulator() study.Accumulator {
	a := &timedAccumulator{inner: analysis.NewAccumulator()}
	t.mu.Lock()
	t.accs = append(t.accs, a)
	t.mu.Unlock()
	return a
}

func (a *timedAccumulator) Fold(rec *study.ProbeRecord) {
	t0 := time.Now()
	a.inner.Fold(rec)
	a.foldNs += time.Since(t0)
	a.folds++
}

// Merge unwraps other: the inner accumulator merges only its own type.
func (a *timedAccumulator) Merge(other study.Accumulator) error {
	t0 := time.Now()
	defer func() { a.mergeNs += time.Since(t0) }()
	if o, ok := other.(*timedAccumulator); ok {
		other = o.inner
	}
	return a.inner.Merge(other)
}

func (a *timedAccumulator) MarshalState() ([]byte, error) {
	t0 := time.Now()
	defer func() { a.marshalNs += time.Since(t0) }()
	return a.inner.MarshalState()
}

func (a *timedAccumulator) LoadState(data []byte) error { return a.inner.LoadState(data) }

// unwrapAccumulator returns the analysis accumulator under any timer.
func unwrapAccumulator(a study.Accumulator) *analysis.Accumulator {
	if t, ok := a.(*timedAccumulator); ok {
		a = t.inner
	}
	return a.(*analysis.Accumulator)
}

// --- record sink ---

type timedSink struct {
	inner study.RecordSink
	t     *tracer
}

func (s *timedSink) Append(e study.ProbeExport) error {
	defer since(time.Now(), &s.t.sinkAppendNs)
	return s.inner.Append(e)
}

func (s *timedSink) Close() error {
	defer since(time.Now(), &s.t.sinkCloseNs)
	return s.inner.Close()
}

type sinkFlushTimer struct {
	inner study.SinkFlusher
	t     *tracer
}

func (f sinkFlushTimer) Flush() error {
	defer since(time.Now(), &f.t.sinkFlushNs)
	f.t.sinkFlushes.Add(1)
	return f.inner.Flush()
}

// wrapSink times a shard's sink, keeping its SinkFlusher (the engine
// flushes before each checkpoint) and SinkStatser (read after Close).
func (t *tracer) wrapSink(s study.RecordSink) study.RecordSink {
	ts := &timedSink{inner: s, t: t}
	f, flushes := s.(study.SinkFlusher)
	st, stats := s.(study.SinkStatser)
	switch {
	case flushes && stats:
		return struct {
			*timedSink
			sinkFlushTimer
			study.SinkStatser
		}{ts, sinkFlushTimer{f, t}, st}
	case flushes:
		return struct {
			*timedSink
			sinkFlushTimer
		}{ts, sinkFlushTimer{f, t}}
	case stats:
		return struct {
			*timedSink
			study.SinkStatser
		}{ts, st}
	}
	return ts
}

// --- checkpoint filesystem ---

type timedFS struct {
	inner faultfs.FS
	t     *tracer
}

type timedFile struct {
	inner faultfs.File
	t     *tracer
}

func (t *tracer) wrapFS() faultfs.FS { return timedFS{faultfs.OS{}, t} }

func (f timedFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	defer since(time.Now(), &f.t.fsNs)
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.t}, nil
}

func (f timedFS) Rename(oldpath, newpath string) error {
	defer since(time.Now(), &f.t.fsNs)
	return f.inner.Rename(oldpath, newpath)
}

func (f timedFS) Remove(name string) error {
	defer since(time.Now(), &f.t.fsNs)
	return f.inner.Remove(name)
}

func (f timedFS) MkdirAll(dir string, perm fs.FileMode) error {
	defer since(time.Now(), &f.t.fsNs)
	return f.inner.MkdirAll(dir, perm)
}

func (f timedFS) SyncDir(dir string) error {
	defer since(time.Now(), &f.t.fsNs)
	f.t.fsSyncs.Add(1)
	return f.inner.SyncDir(dir)
}

func (f timedFile) Write(p []byte) (int, error) {
	defer since(time.Now(), &f.t.fsNs)
	n, err := f.inner.Write(p)
	f.t.fsBytes.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	defer since(time.Now(), &f.t.fsNs)
	f.t.fsSyncs.Add(1)
	return f.inner.Sync()
}

func (f timedFile) Close() error {
	defer since(time.Now(), &f.t.fsNs)
	return f.inner.Close()
}

// --- per-layer metrics ---

// addMetrics adds the traced per-layer metrics of one repetition: the
// seam timers, the CPU profile's layer split, and their reconciliation
// with wall time.
func (t *tracer) addMetrics(m map[string]float64, prof *profileSplit, counts map[string]float64, wall time.Duration, workers int) {
	var each, perProbe []time.Duration
	var busy time.Duration
	for _, log := range t.exchanges {
		each = append(each, log.each...)
		perProbe = append(perProbe, log.perProbe...)
	}
	for _, d := range each {
		busy += d
	}
	m["core.exchange.count"] = float64(len(each))
	m["core.exchange.busy_s"] = busy.Seconds()
	m["core.exchange.us_p50"] = percentile(each, 0.50).Seconds() * 1e6
	m["core.exchange.us_p99"] = percentile(each, 0.99).Seconds() * 1e6
	m["core.probe.exchange_ms_p50"] = percentile(perProbe, 0.50).Seconds() * 1e3
	m["core.probe.exchange_ms_p99"] = percentile(perProbe, 0.99).Seconds() * 1e3

	var folds int
	var foldNs, mergeNs, marshalNs time.Duration
	for _, a := range t.accs {
		folds += a.folds
		foldNs += a.foldNs
		mergeNs += a.mergeNs
		marshalNs += a.marshalNs
	}
	m["analysis.fold.count"] = float64(folds)
	m["analysis.fold.busy_s"] = foldNs.Seconds()
	m["analysis.merge.busy_s"] = mergeNs.Seconds()
	m["analysis.marshal.busy_s"] = marshalNs.Seconds()

	m["sink.append.busy_s"] = time.Duration(t.sinkAppendNs.Load()).Seconds()
	m["sink.flush.count"] = float64(t.sinkFlushes.Load())
	m["sink.flush.busy_s"] = time.Duration(t.sinkFlushNs.Load() + t.sinkCloseNs.Load()).Seconds()
	m["checkpoint.fs.busy_s"] = time.Duration(t.fsNs.Load()).Seconds()
	m["checkpoint.fsyncs"] = float64(t.fsSyncs.Load())
	m["checkpoint.bytes"] = float64(t.fsBytes.Load())

	// A module without samples has no entry; summaries read it as 0.
	for bucket, d := range prof.buckets {
		if bucket != "other" {
			m[bucket+".cpu_s"] = d.Seconds()
		}
	}
	m["study.build.cpu_s"] = prof.build.Seconds()
	m["study.predraw.cpu_s"] = prof.predraw.Seconds()
	m["trace.cpu_s"] = prof.total.Seconds()
	m["trace.other_s"] = prof.buckets["other"].Seconds()
	m["trace.utilization"] = prof.total.Seconds() / (wall.Seconds() * float64(workers))
	m["netsim.ns_per_hop"] = ratio(prof.buckets["netsim"].Seconds()*1e9, counts["netsim.client_hops_forwarded"])
	m["dnswire.ns_per_exchange"] = ratio(prof.buckets["dnswire"].Seconds()*1e9, float64(len(each)))
}

// percentile is the nearest-rank p-quantile of ds (sorted in place).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// --- CPU profile attribution ---

const (
	internalPrefix = "github.com/dnswatch/dnsloc/internal/"
	// profileHz is the CPU profile's sampling rate; at 250 Hz the sampled
	// total matches getrusage within process start-up time.
	profileHz = 250
)

// profileSplit is a CPU profile's samples split into layer buckets: the
// innermost internal module on the stack, "gc" for the background mark
// workers, "other" for the rest. The buckets add up to total.
type profileSplit struct {
	buckets        map[string]time.Duration
	total          time.Duration
	build, predraw time.Duration // by phase, across buckets
}

// attributeProfile reads a CPU profile back through the toolchain's
// pprof and splits its samples.
func attributeProfile(path string) (*profileSplit, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return splitTraces(string(out))
}

// splitTraces parses `pprof -traces` text: after a header, blocks
// separated by dashed lines, each a sample value and the leaf frame on
// the first line and one caller frame per following line.
func splitTraces(text string) (*profileSplit, error) {
	p := &profileSplit{buckets: make(map[string]time.Duration)}
	var val time.Duration
	var frames []string
	inBlock, wantValue := false, false
	flush := func() {
		if len(frames) > 0 {
			p.add(val, frames)
		}
		frames = frames[:0]
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, wantValue = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if wantValue {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof sample value %q: %w", fields[0], err)
			}
			val, fields, wantValue = d, fields[1:], false
			if len(fields) == 0 {
				continue
			}
		}
		frames = append(frames, fields[0]) // drops an "(inline)" marker
	}
	flush()
	return p, nil
}

// add attributes one sample; frames run from leaf to root.
func (p *profileSplit) add(val time.Duration, frames []string) {
	bucket := "other"
	for _, f := range frames {
		if strings.HasPrefix(f, internalPrefix) {
			bucket = f[len(internalPrefix):]
			if i := strings.IndexAny(bucket, "./"); i > 0 {
				bucket = bucket[:i]
			}
			break
		}
		if f == "runtime.gcBgMarkWorker" {
			bucket = "gc"
		}
	}
	p.buckets[bucket] += val
	p.total += val
	for _, f := range frames {
		switch f {
		case internalPrefix + "study.NewWorldTemplate", internalPrefix + "study.(*WorldTemplate).Build":
			p.build += val
			return
		case internalPrefix + "atlas.(*Platform).PredrawResponses":
			p.predraw += val
			return
		}
	}
}
