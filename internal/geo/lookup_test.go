package geo

// OrgByASN and TotalWeight are used only by this package's tests.

// OrgByASN looks up an org.
func OrgByASN(asn int) (Org, bool) {
	for _, o := range orgs {
		if o.ASN == asn {
			return o, true
		}
	}
	return Org{}, false
}

// TotalWeight sums all country weights.
func TotalWeight() int {
	t := 0
	for _, c := range countries {
		t += c.Weight
	}
	return t
}
