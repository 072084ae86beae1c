package offheap

import "encoding/binary"

// Record access. Field offsets are the same byte offsets the managed heap
// uses (computed once per class in internal/lang), so the synthesized
// conversion functions are field-by-field copies with no remapping.
//
// Every access is one resolution of the page reference followed by reads
// or writes of the resolved bytes, which start at the record header. Bytes
// is that resolution on every store, tiered or not: a lock-free
// copy-on-write table read, no pin, no atomic write, small enough to inline
// at the call site. It returns nil for a page that is on disk, and the
// caller then faults the page in and resolves again: the VM's dispatch
// loop and boundary through Fault, which may also spill, the whole-record
// helpers below (header words, reference slots, body copies) through
// resolve, which never does (nor does Resident, its error-returning form
// for the VM's bulk conversion). A caller passes the header size its
// operation implies (ScalarHeader for a field, ArrayHeader for an
// element); the helpers read the header to find the body.

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

// resolve is Resident for the whole-record helpers (ArrayCopy holds the
// source's bytes while it resolves the destination). A failed promotion
// panics with *TierFault, recovered at the VM call boundary. It tests the
// resident case itself rather than only wrapping Resident: a bare wrapper
// would inline into the one-line helpers that call it (TypeID, ArrayLen, …)
// and push them over the inliner's budget, and the VM's hot paths inline
// those helpers.
func (rt *Runtime) resolve(ref PageRef) []byte {
	if b := rt.Bytes(ref); b != nil {
		return b
	}
	b, err := rt.Resident(ref)
	if err != nil {
		panic(&TierFault{Err: err})
	}
	return b
}

// TypeWord reads the raw type word (class ID, or array bit | array type
// index) from resolved record bytes.
func TypeWord(b []byte) uint16 { return getU16(b) }

// ArrayLength reads the length from the resolved bytes of an array record.
func ArrayLength(b []byte) int { return int(getU32(b[4:])) }

// body skips the header of resolved record bytes.
func body(b []byte) []byte {
	if getU16(b)&arrayTypeBit != 0 {
		return b[ArrayHeader:]
	}
	return b[ScalarHeader:]
}

// TypeID returns the record's raw type word.
func (rt *Runtime) TypeID(ref PageRef) uint16 {
	return getU16(rt.resolve(ref))
}

// IsArrayRecord reports whether ref names an array record.
func (rt *Runtime) IsArrayRecord(ref PageRef) bool {
	return rt.TypeID(ref)&arrayTypeBit != 0
}

// ClassID returns the class ID of a scalar record.
func (rt *Runtime) ClassID(ref PageRef) int { return int(rt.TypeID(ref)) }

// ArrayTypeOf returns the array type index of an array record.
func (rt *Runtime) ArrayTypeOf(ref PageRef) int {
	return int(rt.TypeID(ref) &^ arrayTypeBit)
}

// ArrayLen returns the length of an array record.
func (rt *Runtime) ArrayLen(ref PageRef) int {
	return ArrayLength(rt.resolve(ref))
}

// GetLockID reads the record's 2-byte lock field.
func (rt *Runtime) GetLockID(ref PageRef) uint16 {
	return getU16(rt.resolve(ref)[2:])
}

// SetLockID writes the record's lock field. Callers serialize through the
// lock pool.
func (rt *Runtime) SetLockID(ref PageRef, id uint16) {
	putU16(rt.resolve(ref)[2:], id)
}

// GetRef reads a reference slot (a nested page reference).
func (rt *Runtime) GetRef(ref PageRef, off int) PageRef {
	return PageRef(getU64(body(rt.resolve(ref))[off:]))
}

// SetRef writes a reference slot. There is no write barrier: nothing
// traces these pages — that is the optimization.
func (rt *Runtime) SetRef(ref PageRef, off int, v PageRef) {
	putU64(body(rt.resolve(ref))[off:], uint64(v))
}

// WriteBody copies data into the record body at off (bulk byte-array
// fills).
func (rt *Runtime) WriteBody(ref PageRef, off int, data []byte) {
	copy(body(rt.resolve(ref))[off:], data)
}

// ReadBody copies n body bytes starting at off out of the record.
func (rt *Runtime) ReadBody(ref PageRef, off, n int) []byte {
	out := make([]byte, n)
	copy(out, body(rt.resolve(ref))[off:])
	return out
}

// ArrayCopy copies n elements of elemSize bytes between array records,
// the native-memory model of System.arraycopy.
func (rt *Runtime) ArrayCopy(src PageRef, srcPos int, dst PageRef, dstPos, n, elemSize int) {
	sb, db := rt.resolve(src), rt.resolve(dst)
	copy(body(db)[dstPos*elemSize:(dstPos+n)*elemSize], body(sb)[srcPos*elemSize:(srcPos+n)*elemSize])
}
