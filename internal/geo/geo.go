// Package geo holds the reference tables of countries and organizations
// (ISPs / ASes) used to synthesize a RIPE-Atlas-like probe population.
//
// The weights encode the platform biases the paper warns about (§4):
// far more probes in Europe and North America than elsewhere, and a
// heavy Comcast presence. They are relative units, not probe counts —
// the population generator normalizes them.
package geo

import "sort"

// Country is one probe-hosting country.
type Country struct {
	Code   string // ISO 3166-1 alpha-2
	Name   string
	Weight int // relative share of the probe population
}

// Org is one probe-hosting organization (an ISP, identified by its
// principal ASN as RIPE Atlas does).
type Org struct {
	ASN     int
	Name    string
	Country string // ISO code of the org's principal market
	Weight  int    // relative share of the country's probes
}

// countries mirrors the Atlas geographic skew: EU- and NA-heavy.
var countries = []Country{
	{"US", "United States", 1750},
	{"DE", "Germany", 1450},
	{"FR", "France", 820},
	{"GB", "United Kingdom", 760},
	{"NL", "Netherlands", 700},
	{"RU", "Russia", 540},
	{"IT", "Italy", 380},
	{"CA", "Canada", 330},
	{"BE", "Belgium", 300},
	{"CH", "Switzerland", 290},
	{"SE", "Sweden", 270},
	{"ES", "Spain", 260},
	{"FI", "Finland", 230},
	{"AT", "Austria", 220},
	{"PL", "Poland", 210},
	{"CZ", "Czechia", 205},
	{"AU", "Australia", 190},
	{"JP", "Japan", 150},
	{"UA", "Ukraine", 140},
	{"NO", "Norway", 135},
	{"DK", "Denmark", 130},
	{"IE", "Ireland", 120},
	{"BR", "Brazil", 115},
	{"GR", "Greece", 105},
	{"RO", "Romania", 100},
	{"IN", "India", 95},
	{"TR", "Turkey", 85},
	{"ZA", "South Africa", 75},
	{"MX", "Mexico", 60},
	{"ID", "Indonesia", 55},
}

// orgs lists the ISPs probes attach to. ASNs are the real ones for
// recognizability; weights are within-country shares.
var orgs = []Org{
	// United States
	{7922, "Comcast", "US", 420},
	{7018, "AT&T", "US", 180},
	{701, "Verizon", "US", 150},
	{20115, "Charter Spectrum", "US", 160},
	{22773, "Cox", "US", 90},
	{209, "CenturyLink", "US", 80},
	// Germany
	{3320, "Deutsche Telekom", "DE", 380},
	{6830, "Liberty Global (DE)", "DE", 260},
	{3209, "Vodafone DE", "DE", 250},
	{8881, "1&1 Versatel", "DE", 140},
	{31334, "Vodafone Kabel", "DE", 120},
	// France
	{12322, "Free SAS", "FR", 300},
	{3215, "Orange", "FR", 260},
	{15557, "SFR", "FR", 130},
	{5410, "Bouygues", "FR", 110},
	// United Kingdom
	{2856, "BT", "GB", 230},
	{5089, "Virgin Media", "GB", 200},
	{5607, "Sky UK", "GB", 150},
	{13285, "TalkTalk", "GB", 90},
	// Netherlands
	{33915, "Ziggo", "NL", 250},
	{1136, "KPN", "NL", 230},
	{50266, "Odido", "NL", 80},
	// Russia
	{12389, "Rostelecom", "RU", 240},
	{8402, "Vimpelcom", "RU", 120},
	{25513, "MGTS", "RU", 80},
	// Italy
	{3269, "Telecom Italia", "IT", 190},
	{30722, "Vodafone IT", "IT", 90},
	{12874, "Fastweb", "IT", 70},
	// Canada
	{6327, "Shaw Communications", "CA", 140},
	{812, "Rogers", "CA", 100},
	{577, "Bell Canada", "CA", 80},
	// Belgium
	{5432, "Proximus", "BE", 150},
	{6848, "Telenet", "BE", 130},
	// Switzerland
	{3303, "Swisscom", "CH", 160},
	{6730, "Sunrise", "CH", 90},
	// Sweden
	{3301, "Telia", "SE", 150},
	{39651, "Comhem", "SE", 80},
	// Spain
	{3352, "Telefonica", "ES", 150},
	{12479, "Orange ES", "ES", 80},
	// Finland
	{1759, "Elisa", "FI", 120},
	{719, "Telia FI", "FI", 80},
	// Austria
	{8447, "A1 Telekom", "AT", 130},
	{8412, "Magenta AT", "AT", 70},
	// Poland
	{5617, "Orange PL", "PL", 120},
	{12741, "Netia", "PL", 60},
	// Czechia
	{5610, "O2 CZ", "CZ", 110},
	{16019, "Vodafone CZ", "CZ", 70},
	// Australia
	{1221, "Telstra", "AU", 110},
	{4804, "Optus", "AU", 60},
	// Japan
	{2516, "KDDI", "JP", 80},
	{4713, "NTT OCN", "JP", 60},
	// Ukraine
	{13188, "Triolan", "UA", 70},
	{6849, "Ukrtelecom", "UA", 60},
	// Norway
	{2119, "Telenor", "NO", 120},
	// Denmark
	{3292, "TDC", "DK", 110},
	// Ireland
	{6830 + 1000000, "Virgin Media IE", "IE", 60}, // disambiguated pseudo-ASN
	{5466, "Eir", "IE", 60},
	// Brazil
	{28573, "Claro BR", "BR", 60},
	{18881, "Vivo", "BR", 50},
	// Greece
	{1241, "OTE", "GR", 90},
	// Romania
	{8708, "RCS & RDS", "RO", 90},
	// India
	{24560, "Airtel", "IN", 50},
	{17488, "Hathway", "IN", 40},
	// Turkey
	{9121, "Turk Telekom", "TR", 70},
	// South Africa
	{3741, "IS", "ZA", 60},
	// Mexico
	{8151, "Telmex", "MX", 50},
	// Indonesia
	{7713, "Telkom Indonesia", "ID", 45},
}

// Countries returns the country table ordered by descending weight.
func Countries() []Country {
	out := append([]Country(nil), countries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}

// Orgs returns the org table ordered by descending weight.
func Orgs() []Org {
	out := append([]Org(nil), orgs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}

// OrgsIn returns the orgs of one country, descending by weight.
func OrgsIn(countryCode string) []Org {
	var out []Org
	for _, o := range orgs {
		if o.Country == countryCode {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}

// CountryByCode looks up a country.
func CountryByCode(code string) (Country, bool) {
	for _, c := range countries {
		if c.Code == code {
			return c, true
		}
	}
	return Country{}, false
}
