package dnswire

import "sync"

// Pack buffers for real-socket transports (udpclient/tcpclient) that
// pack a query, write it to the wire, and are immediately done with the
// bytes. Name compression needs no pool: PackTo keeps its suffix table
// on the stack (see compressor).
//
// Ownership discipline: a pooled buffer is only ever returned by the
// code that took it, after the bytes have left the process (or the
// simulator). Unpack always deep-copies out of its input, so parsed
// Messages never alias pooled storage and stay valid across reuse.

// packBufPool recycles transport pack buffers. Stored as *[]byte so the
// slice header itself is not re-boxed on every Put.
var packBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, maxUDPPayload)
		return &b
	},
}

// GetPackBuf returns an empty buffer suitable for PackTo. Pair it with
// PutPackBuf once the packed bytes are no longer referenced.
func GetPackBuf() []byte {
	return (*packBufPool.Get().(*[]byte))[:0]
}

// PutPackBuf returns a buffer obtained from GetPackBuf (possibly regrown
// by PackTo) to the pool. The caller must not touch the bytes afterwards.
func PutPackBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	packBufPool.Put(&buf)
}
