package netsim

import (
	"net/netip"
	"sync"
)

// This file implements shared routing state for worlds stamped out of a
// common template. The big backbone routers (the core and the regional
// transit routers) carry identical forwarding tables in every shard
// world — every ISP prefix, overflow bank, operator site, and
// transit-resolver block — yet each world used to rebuild those
// per-length prefix maps from scratch. A RoutingCore compiles that
// table once, on the first build, into an immutable structure keyed by
// next-hop *device name*; every later world binds its own device
// instances to the recorded names and skips the map work entirely.
//
// Only the lookup tables are shared. Everything mutable on a router —
// NAT conntrack, bound services, local addresses, and the 4-slot
// lookup memo — stays per-world, which is what keeps concurrent shard
// workers free of cross-world writes.

// CoreRole says how one world build relates to a CoreSet.
type CoreRole int

const (
	// CorePlain builds with no sharing: every router keeps local tables.
	CorePlain CoreRole = iota
	// CoreRecorder is the first build: it keeps local tables and mirrors
	// every eligible insert into the cores, then seals them.
	CoreRecorder
	// CoreBound builds against sealed cores: shared routers skip local
	// inserts and only bind next-hop devices by name.
	CoreBound
)

// CoreSet coordinates RoutingCore construction across concurrent world
// builds. The first builder to call Begin becomes the recorder; all
// others block until the recorder seals (topology complete) or abandons
// (recorder build panicked), then proceed bound or plain respectively.
type CoreSet struct {
	mu        sync.Mutex
	started   bool
	sealed    bool
	abandoned bool
	done      chan struct{}
	cores     map[string]*RoutingCore
}

// NewCoreSet returns an empty, unclaimed core set.
func NewCoreSet() *CoreSet {
	return &CoreSet{done: make(chan struct{}), cores: make(map[string]*RoutingCore)}
}

// Begin claims this build's role. The recorder returns immediately;
// every other caller blocks until Seal or Abandon.
func (cs *CoreSet) Begin() CoreRole {
	if cs == nil {
		return CorePlain
	}
	cs.mu.Lock()
	if !cs.started {
		cs.started = true
		cs.mu.Unlock()
		return CoreRecorder
	}
	cs.mu.Unlock()
	<-cs.done
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.abandoned {
		return CorePlain
	}
	return CoreBound
}

// Seal freezes every core (the recorder's topology phase is complete)
// and releases waiting builds. Idempotent.
func (cs *CoreSet) Seal() {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.sealed || cs.abandoned {
		return
	}
	cs.sealed = true
	close(cs.done)
}

// Abandon releases waiting builds without sealing — the recorder's
// deferred escape hatch when its build panics mid-topology. Waiters
// proceed unshared. No-op after Seal.
func (cs *CoreSet) Abandon() {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.sealed || cs.abandoned {
		return
	}
	cs.abandoned = true
	close(cs.done)
}

// For returns the core for a router name. The recorder creates entries
// on demand; after sealing, unknown names return nil (the router then
// builds plain local tables).
func (cs *CoreSet) For(name string) *RoutingCore {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := cs.cores[name]
	if c == nil && !cs.sealed && !cs.abandoned {
		c = newRoutingCore()
		cs.cores[name] = c
	}
	return c
}

// RoutingCore is one router's compiled forwarding table: prefixes in
// per-family, per-length tables keyed by routeKey (the same shape
// Router uses locally) with
// next hops as ordinals into a name list instead of device pointers.
// Immutable once its CoreSet seals; safe for concurrent readers.
type RoutingCore struct {
	v4, v6    lenTables[coreEntry]
	hopNames  []string
	hopIndex  map[string]int
	numRoutes int
}

// coreEntry names a route by ordinal (its materialization slot in each
// bound world) and its next hop's index in hopNames.
type coreEntry struct{ ord, hop int }

func newRoutingCore() *RoutingCore {
	return &RoutingCore{hopIndex: make(map[string]int)}
}

// record mirrors one insert from the recorder world. Re-adding a prefix
// replaces its next hop but keeps the ordinal, matching the local
// tables' replace semantics while keeping bound worlds' slots stable.
func (c *RoutingCore) record(p netip.Prefix, hopName string) {
	hop, ok := c.hopIndex[hopName]
	if !ok {
		hop = len(c.hopNames)
		c.hopNames = append(c.hopNames, hopName)
		c.hopIndex[hopName] = hop
	}
	t := &c.v4
	if p.Addr().Is6() {
		t = &c.v6
	}
	k, bits := prefixKey(p)
	lt := t.at(bits)
	if old, exists := lt.get(k); exists {
		lt.set(k, coreEntry{ord: old.ord, hop: hop})
		return
	}
	lt.set(k, coreEntry{ord: c.numRoutes, hop: hop})
	c.numRoutes++
}

// entry looks up a prefix's core slot, if recorded.
func (c *RoutingCore) entry(p netip.Prefix) (coreEntry, bool) {
	t := &c.v4
	if p.Addr().Is6() {
		t = &c.v6
	}
	k, bits := prefixKey(p)
	lt := t.find(bits)
	if lt == nil {
		return coreEntry{}, false
	}
	e, ok := lt.get(k)
	return e, ok
}
