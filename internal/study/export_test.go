package study_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/dnswatch/dnsloc/internal/study"
)

// TestExportRoundTripsThroughJSON: a run's JSON document, written
// from its JSONL rows, decodes back to every probe's export.
func TestExportRoundTripsThroughJSON(t *testing.T) {
	res := study.Run(study.BuildWorld(study.PaperSpec().Scale(0.02)))
	var rows, blob bytes.Buffer
	sink := study.NewJSONLSink(&rows)
	for _, rec := range res.Records {
		if err := sink.Append(study.ExportRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	doc := study.NewJSONDoc(&blob, res.World.Spec)
	for _, row := range bytes.Split(bytes.TrimSuffix(rows.Bytes(), []byte("\n")), []byte("\n")) {
		if err := doc.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := doc.Close(); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Seed        int64               `json:"seed"`
		TotalProbes int                 `json:"total_probes"`
		Seats       int                 `json:"interception_seats"`
		Probes      []study.ProbeExport `json:"probes"`
	}
	if err := json.Unmarshal(blob.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.TotalProbes != res.World.Spec.TotalProbes || len(decoded.Probes) != decoded.TotalProbes {
		t.Errorf("probes = %d/%d", len(decoded.Probes), decoded.TotalProbes)
	}
	intercepted, truthSeats := 0, 0
	for _, p := range decoded.Probes {
		if len(p.InterceptedV4)+len(p.InterceptedV6) > 0 {
			intercepted++
		}
		if p.TruthLocation != "none" {
			truthSeats++
		}
		if p.TruthLocation == "cpe" && p.Responded && p.CPEFingerprint == "" {
			t.Errorf("probe %d: CPE seat with no fingerprint", p.ProbeID)
		}
	}
	if intercepted == 0 || truthSeats == 0 {
		t.Errorf("intercepted=%d truthSeats=%d", intercepted, truthSeats)
	}
	if intercepted != truthSeats {
		t.Errorf("detected %d != installed %d", intercepted, truthSeats)
	}
}
