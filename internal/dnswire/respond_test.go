package dnswire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestRespondMatchesBuilder: over random queries, flags and records in
// every section, names sharing suffixes with the question included, a
// Responder writes what packing the NewResponse Message does, and a
// refused response leaves the buffer as it found it.
func TestRespondMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(propSeed))
	for i := 0; i < 3000; i++ {
		qm := genMessage(r)
		qm.Header.Response = false
		wire, err := qm.Pack()
		if err != nil {
			continue
		}
		v, err := ParseView(wire)
		if err != nil {
			t.Fatal(err)
		}
		q := v.Message()
		h := Header{
			RCode:              RCode(r.Intn(16)),
			Authoritative:      r.Intn(2) == 0,
			RecursionAvailable: r.Intn(2) == 0,
		}
		ref := NewResponse(q, h.RCode)
		ref.Header.Authoritative, ref.Header.RecursionAvailable = h.Authoritative, h.RecursionAvailable
		var sections [3][]Record
		for s := range sections {
			for j, n := 0, r.Intn(4); j < n; j++ {
				rr := genRecord(r)
				if r.Intn(2) == 0 && len(q.Questions) > 0 {
					// Owner at, under or cased unlike the question.
					switch qn := q.Questions[0].Name; r.Intn(3) {
					case 0:
						rr.Name = qn
					case 1:
						rr.Name = Name(genLabel(r, 5) + "." + string(qn))
					default:
						rr.Name = flipCase(qn)
					}
				}
				sections[s] = append(sections[s], rr)
			}
		}
		ref.Answers, ref.Authority, ref.Additional = sections[0], sections[1], sections[2]
		pre := []byte{0xAA, 0xBB}
		var w Responder
		w.Start(&v, append([]byte(nil), pre...), h)
		w.Answer(sections[0]...)
		w.Authority(sections[1]...)
		w.Additional(sections[2]...)
		got, gotErr := w.Finish()
		want, wantErr := ref.PackTo(append([]byte(nil), pre...))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d: err = %v, builder err = %v", i, gotErr, wantErr)
		}
		if gotErr != nil {
			if !bytes.Equal(got, pre) {
				t.Fatalf("case %d: failed Respond left %x", i, got)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d:\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestRespondRefusesSectionOrder: going back to the answer section
// after the authority section is an error, not a misplaced record.
func TestRespondRefusesSectionOrder(t *testing.T) {
	v, err := ParseView(MustPack(NewQuery(1, "example.com", TypeA, ClassINET)))
	if err != nil {
		t.Fatal(err)
	}
	soa := Record{Name: "example.com", Class: ClassINET, TTL: 60, Data: SOARData{MName: "ns.example.com", RName: "h.example.com"}}
	var w Responder
	w.Start(&v, []byte("x"), Header{Authoritative: true})
	w.Authority(soa)
	w.Answer(soa)
	got, err := w.Finish()
	if !errors.Is(err, errSectionOrder) || string(got) != "x" {
		t.Fatalf("Finish = %q, %v; want %q, %v", got, err, "x", errSectionOrder)
	}
}

// TestRespondAllocs: writing a response into a buffer with room
// allocates nothing.
func TestRespondAllocs(t *testing.T) {
	v, err := ParseView(MustPack(NewQuery(1, "www.example.com", TypeA, ClassINET)))
	if err != nil {
		t.Fatal(err)
	}
	rr := Record{Name: "www.example.com", Class: ClassINET, TTL: 300, Data: ARData{Addr: mustAddr("192.0.2.80")}}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var w Responder
		w.Start(&v, buf, Header{RecursionAvailable: true})
		w.Answer(rr)
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Respond allocates %.1f per response, want 0", allocs)
	}
}
