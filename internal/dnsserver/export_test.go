package dnsserver

// PendingJobs reports how many resolutions r is waiting on.
func PendingJobs(r *RecursiveResolver) int { return len(r.pending) }
