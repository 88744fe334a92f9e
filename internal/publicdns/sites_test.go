package publicdns

// CityOf is used only by this package's tests.

// CityOf returns the airport code of a region's site.
func CityOf(r Region) string { return regionCity[r] }
