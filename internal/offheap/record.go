package offheap

import "encoding/binary"

// Record access. Field offsets are the same byte offsets the managed heap
// uses (computed once per class in internal/lang), so the synthesized
// conversion functions are field-by-field copies with no remapping.
//
// Every access is one resolution of the page reference followed by reads
// or writes of the resolved bytes, which start at the record header. One
// rule governs every resolution, on every store, tiered or not: call Bytes
// first — a lock-free copy-on-write table read, no pin, no atomic write,
// small enough to inline at the call site. Bytes returns nil for a page on
// disk, and the caller then brings the page back and resolves again: with
// Fault if it holds no other record's bytes (Fault may spill other pages,
// with the world stopped), with Resident if it does (Resident promotes and
// never spills). Both return a failed promotion as an error wrapping
// ErrPageExhausted. A caller passes the header size its operation implies
// (ScalarHeader for a field, ArrayHeader for an element); the readers below
// decode the header of bytes already resolved.

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// Bytes resolves ref to the record's bytes from its header on, or to nil
// while the record's page is spilled (see Fault). The bytes stay valid
// until the calling thread next reaches a safepoint, allocates or faults:
// only then can its page be spilled.
func (rt *Runtime) Bytes(ref PageRef) []byte {
	idx, off := splitRef(ref)
	if b := (*rt.table.Load())[idx].buf.Load(); b != nil {
		return (*b)[off:]
	}
	return nil
}

// Resident is Bytes with the fault folded in, for a caller that holds the
// bytes of several records at once: a spilled page is promoted on the spot,
// and no other page is spilled, so bytes resolved before stay valid. A
// promotion may therefore leave the store over its high watermark until the
// next allocation end or Fault. A failed promotion is returned.
func (rt *Runtime) Resident(ref PageRef) ([]byte, error) {
	for {
		if b := rt.Bytes(ref); b != nil {
			return b, nil
		}
		if _, err := rt.promote(ref); err != nil {
			return nil, err
		}
	}
}

// TypeWord reads the raw type word (class ID, or array bit | array type
// index) from resolved record bytes.
func TypeWord(b []byte) uint16 { return getU16(b) }

// ArrayType decodes a type word: an array record's array type index and
// true, or false for a scalar record, whose type word is its class ID.
func ArrayType(tw uint16) (idx int, ok bool) {
	return int(tw &^ arrayTypeBit), tw&arrayTypeBit != 0
}

// ArrayLength reads the length from the resolved bytes of an array record.
func ArrayLength(b []byte) int { return int(getU32(b[4:])) }
