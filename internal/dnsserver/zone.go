package dnsserver

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"github.com/dnswatch/dnsloc/internal/dnssec"
	"github.com/dnswatch/dnsloc/internal/dnswire"
)

// DynamicFunc synthesizes records for a name at query time. The source
// address is the address the authoritative server sees the query come
// from — for the whoami.akamai.com and o-o.myaddr.l.google.com zones
// that address *is* the answer, which is what makes those names useful
// for detecting who really resolved a query.
type DynamicFunc func(q dnswire.Question, src netip.AddrPort) []dnswire.Record

// Zone is one authoritative zone: static records, optional dynamic
// names, and delegations to child zones.
type Zone struct {
	Origin dnswire.Name
	SOA    dnswire.SOARData

	records map[dnswire.Name]map[dnswire.Type][]dnswire.Record
	dynamic map[dnswire.Name]DynamicFunc
	// delegations maps a child cut (e.g. "com" in the root zone) to the
	// NS records and glue for the referral.
	delegations map[dnswire.Name]*Delegation

	// DNSSEC state, populated by Sign.
	key  *dnssec.Key
	sigs map[dnswire.Name]map[dnswire.Type]dnswire.Record
}

// Delegation describes a zone cut.
type Delegation struct {
	Cut dnswire.Name
	NS  []dnswire.Name

	// authority and additional are the referral's sections, built once
	// by Delegate and shared read-only by every referral response; they
	// are clipped, so appending to a response's section copies.
	authority, additional []dnswire.Record
}

// NewZone creates an empty zone with a standard SOA.
func NewZone(origin dnswire.Name) *Zone {
	return &Zone{
		Origin: origin,
		SOA: dnswire.SOARData{
			MName:   joinName("ns1", origin),
			RName:   joinName("hostmaster", origin),
			Serial:  2021110201,
			Refresh: 7200,
			Retry:   3600,
			Expire:  1209600,
			Minimum: 300,
		},
		records:     make(map[dnswire.Name]map[dnswire.Type][]dnswire.Record),
		dynamic:     make(map[dnswire.Name]DynamicFunc),
		delegations: make(map[dnswire.Name]*Delegation),
	}
}

// joinName concatenates a relative label onto an origin.
func joinName(label string, origin dnswire.Name) dnswire.Name {
	if origin == "" {
		return dnswire.Name(label)
	}
	return dnswire.Name(label + "." + string(origin))
}

// Add inserts a record. The record's name must be at or below the origin.
func (z *Zone) Add(rr dnswire.Record) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("dnsserver: record %q outside zone %q", rr.Name, z.Origin)
	}
	key := rr.Name.Canonical()
	if z.records[key] == nil {
		z.records[key] = make(map[dnswire.Type][]dnswire.Record)
	}
	z.records[key][rr.Type()] = append(z.records[key][rr.Type()], rr)
	return nil
}

// MustAdd inserts a record and panics on error; for static world-building.
func (z *Zone) MustAdd(rr dnswire.Record) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// AddAddr inserts an A or AAAA record for name.
func (z *Zone) AddAddr(name dnswire.Name, ttl uint32, addrs ...netip.Addr) {
	for _, a := range addrs {
		var data dnswire.RData
		if a.Is4() {
			data = dnswire.ARData{Addr: a}
		} else {
			data = dnswire.AAAARData{Addr: a}
		}
		z.MustAdd(dnswire.Record{Name: name, Class: dnswire.ClassINET, TTL: ttl, Data: data})
	}
}

// AddTXT inserts a TXT record.
func (z *Zone) AddTXT(name dnswire.Name, ttl uint32, strings ...string) {
	z.MustAdd(dnswire.Record{
		Name: name, Class: dnswire.ClassINET, TTL: ttl,
		Data: dnswire.TXTRData{Strings: strings},
	})
}

// AddCNAME inserts a CNAME record.
func (z *Zone) AddCNAME(name, target dnswire.Name, ttl uint32) {
	z.MustAdd(dnswire.Record{
		Name: name, Class: dnswire.ClassINET, TTL: ttl,
		Data: dnswire.CNAMERData{Target: target},
	})
}

// Load parses zone-file-style lines (dnswire.ParseRecords syntax) and
// adds every record.
func (z *Zone) Load(text string) error {
	rrs, err := dnswire.ParseRecords(text)
	if err != nil {
		return err
	}
	for _, rr := range rrs {
		if err := z.Add(rr); err != nil {
			return err
		}
	}
	return nil
}

// SetDynamic registers a dynamic name.
func (z *Zone) SetDynamic(name dnswire.Name, fn DynamicFunc) {
	z.dynamic[name.Canonical()] = fn
}

// Delegate records a zone cut with its nameservers and glue addresses,
// and builds its referral: an NS record per nameserver in name order,
// then the glue addresses of each canonical host name in that name's
// order.
func (z *Zone) Delegate(cut dnswire.Name, ns map[dnswire.Name][]netip.Addr) {
	d := &Delegation{Cut: cut}
	for host := range ns {
		d.NS = append(d.NS, host)
	}
	sort.Slice(d.NS, func(i, j int) bool { return d.NS[i] < d.NS[j] })
	glue := make(map[dnswire.Name][]netip.Addr, len(ns))
	for _, host := range d.NS {
		glue[host.Canonical()] = ns[host]
		d.authority = append(d.authority, dnswire.Record{
			Name: cut, Class: dnswire.ClassINET, TTL: 172800,
			Data: dnswire.NSRData{Host: host},
		})
	}
	hosts := make([]dnswire.Name, 0, len(glue))
	for host := range glue {
		hosts = append(hosts, host)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, host := range hosts {
		for _, a := range glue[host] {
			var data dnswire.RData = dnswire.AAAARData{Addr: a}
			if a.Is4() {
				data = dnswire.ARData{Addr: a}
			}
			d.additional = append(d.additional, dnswire.Record{
				Name: host, Class: dnswire.ClassINET, TTL: 172800, Data: data,
			})
		}
	}
	d.authority, d.additional = slices.Clip(d.authority), slices.Clip(d.additional)
	z.delegations[cut.Canonical()] = d
}

// LookupResult classifies an authoritative lookup.
type LookupResult int

// Lookup outcomes.
const (
	// LookupAnswer: records found; Answer holds them.
	LookupAnswer LookupResult = iota
	// LookupNoData: the name exists but not with the requested type.
	LookupNoData
	// LookupNXDomain: the name does not exist in the zone.
	LookupNXDomain
	// LookupDelegation: the name is below a zone cut; Referral holds it.
	LookupDelegation
	// LookupCNAME: the name is an alias; Answer holds the CNAME record.
	LookupCNAME
	// LookupOutOfZone: the name is not within this zone at all.
	LookupOutOfZone
)

// Lookup resolves a question against the zone.
func (z *Zone) Lookup(q dnswire.Question, src netip.AddrPort) (LookupResult, []dnswire.Record, *Delegation) {
	if !q.Name.IsSubdomainOf(z.Origin) {
		return LookupOutOfZone, nil, nil
	}
	// Delegation check: walk ancestors of q.Name strictly below origin.
	// The parent stays authoritative for DS records *at* the cut
	// (RFC 4035 §2.4), so a DS query for the cut name itself is answered
	// from zone data rather than referred.
	for name := q.Name; ; {
		if name.Canonical() != z.Origin.Canonical() {
			if d, ok := z.delegations[name.Canonical()]; ok {
				dsAtCut := q.Type == dnswire.TypeDS && q.Name.Equal(name)
				if !dsAtCut {
					return LookupDelegation, nil, d
				}
			}
		}
		parent, ok := name.Parent()
		if !ok || !parent.IsSubdomainOf(z.Origin) {
			break
		}
		name = parent
	}
	key := q.Name.Canonical()
	if fn, ok := z.dynamic[key]; ok {
		if rrs := fn(q, src); rrs != nil {
			return LookupAnswer, rrs, nil
		}
		return LookupNoData, nil, nil
	}
	byType, exists := z.records[key]
	if !exists {
		return LookupNXDomain, nil, nil
	}
	if rrs, ok := byType[q.Type]; ok && q.Type != dnswire.TypeANY {
		return LookupAnswer, rrs, nil
	}
	if q.Type == dnswire.TypeANY {
		var all []dnswire.Record
		var types []dnswire.Type
		for t := range byType {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			all = append(all, byType[t]...)
		}
		return LookupAnswer, all, nil
	}
	if rrs, ok := byType[dnswire.TypeCNAME]; ok {
		return LookupCNAME, rrs, nil
	}
	return LookupNoData, nil, nil
}

// SOARecord returns the zone's SOA as a record for negative answers.
func (z *Zone) SOARecord() dnswire.Record {
	return dnswire.Record{
		Name: z.Origin, Class: dnswire.ClassINET, TTL: z.SOA.Minimum, Data: z.SOA,
	}
}
