package dnswire

// IsError is used only by this package's tests.

// IsError reports whether the rcode indicates the server deliberately
// declined or failed to answer. NXDOMAIN is an error rcode in the wire
// sense but represents a successful resolution of a nonexistent name, so
// the transparency analysis treats it separately.
func (r RCode) IsError() bool { return r != RCodeSuccess }
