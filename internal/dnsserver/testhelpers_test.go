package dnsserver

// AddZone is used only by this package's tests.

// AddZone attaches another zone.
func (s *AuthServer) AddZone(z *Zone) { s.zones = append(s.zones, z) }
