package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/ttlprobe"
)

// ExportRecord flattens one record into a fresh export; the study_test
// package's tests use it too.
func ExportRecord(rec *ProbeRecord) ProbeExport {
	var e ProbeExport
	ExportRecordInto(rec, &e)
	return e
}

// jsonOracle is the -json document marshalled from retained records, as
// pilotstudy wrote it before it read the record stream.
func jsonOracle(spec Spec, recs []*ProbeRecord) ([]byte, error) {
	probes := make([]ProbeExport, 0, len(recs))
	for _, rec := range recs {
		probes = append(probes, ExportRecord(rec))
	}
	return json.MarshalIndent(struct {
		Seed        int64         `json:"seed"`
		TotalProbes int           `json:"total_probes"`
		Seats       int           `json:"interception_seats"`
		Probes      []ProbeExport `json:"probes"`
	}{spec.Seed, spec.TotalProbes, spec.TotalSeats(), probes}, "", "  ")
}

// ttlOracle is the TTL extension over retained records, as pilotstudy
// ran it before it read the record stream: each ladder from the probe's
// home, bound after the sweep into the world that measured the probe.
func ttlOracle(w *World, recs []*ProbeRecord, cleanSample, maxTTL int) TTLStats {
	stats := TTLStats{FirstTTLs: make(map[core.Verdict][]int)}
	google := netip.AddrPortFrom(publicdns.Lookup(publicdns.Google).V4[0], 53)
	cleanSeen := 0
	for _, rec := range recs {
		if rec.Report == nil {
			continue
		}
		verdict := rec.Report.Verdict
		if verdict == core.VerdictNotIntercepted {
			if cleanSeen >= cleanSample {
				continue
			}
			cleanSeen++
		}
		w.buildHome(rec.Probe)
		ladder, err := ttlprobe.Ladder(&ttlprobe.SimTTLClient{Net: w.Net, Host: rec.Probe.Host},
			google, publicdns.CanaryDomain, maxTTL)
		w.releaseHome(rec.Probe)
		if err != nil {
			continue
		}
		stats.FirstTTLs[verdict] = append(stats.FirstTTLs[verdict], ladder.FirstTTL)
	}
	for _, ttls := range stats.FirstTTLs {
		sort.Ints(ttls)
	}
	return stats
}

// recordFiles runs spec streamed over workers shards with a JSONL
// record sink per shard and returns the files in shard order.
func recordFiles(t *testing.T, spec Spec, workers int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, workers)
	for k := range paths {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", k))
	}
	res, err := RunStreamed(spec, StreamOptions{
		Workers:        workers,
		NewAccumulator: func(int) Accumulator { return &ckAcc{} },
		NewSink: func(k, _, _ int) (RecordSink, error) {
			f, err := os.Create(paths[k])
			if err != nil {
				return nil, err
			}
			return NewJSONLSink(f), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("workers=%d: shard errors: %v", workers, res.Errors)
	}
	return paths
}

// TestJSONAndTTLFromRecordStream: the -json document and the -ext ttl
// ladders built from a streamed run's record files, read back in
// probe-ID order, equal the record-based oracles at 1, 2 and 4 workers,
// on a clean spec and under the forging adversary.
func TestJSONAndTTLFromRecordStream(t *testing.T) {
	clean := PaperSpec().Scale(0.05)
	adv := clean
	adv.Adversary = 2
	for name, spec := range map[string]Spec{"clean": clean, "adversary-L2": adv} {
		w := BuildWorld(spec)
		res := Run(w)
		wantJSON, err := jsonOracle(spec, res.Records)
		if err != nil {
			t.Fatal(err)
		}
		wantTTL := ttlOracle(w, res.Records, 50, 10)
		if len(wantTTL.FirstTTLs) < 2 {
			t.Fatalf("%s: ladders only from %v", name, wantTTL.FirstTTLs)
		}
		for _, workers := range []int{1, 2, 4} {
			var got bytes.Buffer
			doc := NewJSONDoc(&got, spec)
			targets := TTLTargets{CleanSample: 50}
			err := WalkRecords(recordFiles(t, spec, workers), func(row []byte, e *ProbeExport) error {
				targets.Add(e)
				return doc.Add(row)
			})
			if err == nil {
				err = doc.Close()
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !bytes.Equal(got.Bytes(), wantJSON) {
				t.Errorf("%s workers=%d: JSON document (%d bytes) differs from MarshalIndent of the records (%d bytes)",
					name, workers, got.Len(), len(wantJSON))
			}
			if ttl := RunTTLExtension(spec, targets.Targets, 10); !reflect.DeepEqual(ttl, wantTTL) {
				t.Errorf("%s workers=%d: TTL stats %v, want %v", name, workers, ttl.FirstTTLs, wantTTL.FirstTTLs)
			}
		}
	}
}

// TestJSONDocEmpty: a run with no probes writes MarshalIndent's empty
// list.
func TestJSONDocEmpty(t *testing.T) {
	spec := PaperSpec()
	spec.TotalProbes = 0
	want, err := jsonOracle(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := NewJSONDoc(&got, spec).Close(); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("empty document %q, want %q", got.String(), want)
	}
}

// TestWalkRecordsRefusesMisplacedRows: shard files given in the wrong
// order, or a shard with a row past the end of the run, fail the walk
// instead of yielding probes out of ID order.
func TestWalkRecordsRefusesMisplacedRows(t *testing.T) {
	paths := recordFiles(t, PaperSpec().Scale(0.01), 2)
	noop := func([]byte, *ProbeExport) error { return nil }
	if err := WalkRecords(paths, noop); err != nil {
		t.Fatalf("walk of a whole run: %v", err)
	}
	if err := WalkRecords([]string{paths[1], paths[0]}, noop); err == nil {
		t.Error("walk accepted swapped shard files")
	}
	f, err := os.OpenFile(paths[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"probe_id":99999}` + "\n") //nolint:errcheck
	f.Close()
	if err := WalkRecords(paths, noop); err == nil {
		t.Error("walk accepted a row past the end of the run")
	}
}

// TestRebuiltHomeAtItsWANAddress: a home bound again after the sweep,
// in a world built over the unsharded spec, sits at the WAN address the
// probe was measured from.
func TestRebuiltHomeAtItsWANAddress(t *testing.T) {
	spec := PaperSpec().Scale(0.02)
	sharded := BuildWorld(spec.Shard(1, 3))
	var recs []*ProbeRecord
	streamRecords(sharded, 0, func(rec *ProbeRecord) bool {
		recs = append(recs, rec)
		return true
	})
	w := BuildWorld(spec)
	for _, rec := range recs {
		probe := w.probe(rec.Probe.ID)
		w.buildHome(probe)
		cpe, ok := probe.Host.Gateway.(*netsim.Router)
		if !ok || !cpe.HasAddr(rec.Probe.WANv4) {
			t.Fatalf("probe %d: rebuilt CPE does not own WAN %v", rec.Probe.ID, rec.Probe.WANv4)
		}
		w.releaseHome(probe)
		if probe.Host != nil {
			t.Fatalf("probe %d: rebuilt home not released", rec.Probe.ID)
		}
	}
}
