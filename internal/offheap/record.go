package offheap

import "encoding/binary"

// Record access. Field offsets are the same byte offsets the managed heap
// uses (computed once per class in internal/lang), so the synthesized
// conversion functions are field-by-field copies with no remapping.
//
// Every access is one resolution of the page reference followed by reads
// or writes of the resolved bytes, which start at the record header:
//
//   - Bytes is the untiered resolution: a lock-free copy-on-write table
//     read, no pin, no atomics, small enough to inline at the call site.
//   - Pin is the tiered resolution: it pins the page resident for the
//     duration of the operation (promoting it first when spilled), so a
//     reference resolves transparently whichever tier the page is on.
//
// A caller that issues many operations against one store — the VM's
// dispatch loop — asks Tiered once and calls the matching one directly,
// with the header size its operation implies (ScalarHeader for a field,
// ArrayHeader for an element). Everyone else calls Resolve, which picks
// per call, or the few whole-record helpers below (header words, reference
// slots, body copies), which also read the header to find the body.

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// Pin keeps a record's page resident while its bytes are in use. The zero
// Pin (untiered stores) holds nothing.
type Pin struct{ p *page }

// Unpin releases the pin. Pins must not leak: a leaked pin makes a page
// unevictable for the rest of the run.
func (p Pin) Unpin() {
	if p.p != nil {
		p.p.pinned.Add(-1)
	}
}

// Bytes resolves ref, without pinning, to the record's bytes from its
// header on. Only valid on an untiered store: with a tier attached an
// unpinned read races the evictor mid-spill.
func (rt *Runtime) Bytes(ref PageRef) []byte {
	idx, off := splitRef(ref)
	return (*rt.table.Load())[idx].buf[off:]
}

// Pin resolves ref to the record's bytes from its header on and pins the
// page until the returned Pin is released. A tier-load failure panics with
// *TierFault, recovered at the VM call boundary.
func (rt *Runtime) Pin(ref PageRef) ([]byte, Pin) {
	b, p, err := rt.pinResident(ref)
	if err != nil {
		panic(&TierFault{Err: err})
	}
	return b, Pin{p}
}

// Resolve picks the resolution for one access: for callers that touch a
// record now and then rather than per instruction.
func (rt *Runtime) Resolve(ref PageRef) ([]byte, Pin) {
	if rt.tier == nil {
		return rt.Bytes(ref), Pin{}
	}
	return rt.Pin(ref)
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
	b, pin := rt.Resolve(ref)
	v := getU16(b)
	pin.Unpin()
	return v
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
	b, pin := rt.Resolve(ref)
	n := ArrayLength(b)
	pin.Unpin()
	return n
}

// GetLockID reads the record's 2-byte lock field.
func (rt *Runtime) GetLockID(ref PageRef) uint16 {
	b, pin := rt.Resolve(ref)
	v := getU16(b[2:])
	pin.Unpin()
	return v
}

// SetLockID writes the record's lock field. Callers serialize through the
// lock pool.
func (rt *Runtime) SetLockID(ref PageRef, id uint16) {
	b, pin := rt.Resolve(ref)
	putU16(b[2:], id)
	pin.Unpin()
}

// GetRef reads a reference slot (a nested page reference).
func (rt *Runtime) GetRef(ref PageRef, off int) PageRef {
	b, pin := rt.Resolve(ref)
	v := PageRef(getU64(body(b)[off:]))
	pin.Unpin()
	return v
}

// SetRef writes a reference slot. There is no write barrier: nothing
// traces these pages — that is the optimization.
func (rt *Runtime) SetRef(ref PageRef, off int, v PageRef) {
	b, pin := rt.Resolve(ref)
	putU64(body(b)[off:], uint64(v))
	pin.Unpin()
}

// WriteBody copies data into the record body at off (bulk byte-array
// fills).
func (rt *Runtime) WriteBody(ref PageRef, off int, data []byte) {
	b, pin := rt.Resolve(ref)
	copy(body(b)[off:], data)
	pin.Unpin()
}

// ReadBody copies n body bytes starting at off out of the record.
func (rt *Runtime) ReadBody(ref PageRef, off, n int) []byte {
	out := make([]byte, n)
	b, pin := rt.Resolve(ref)
	copy(out, body(b)[off:])
	pin.Unpin()
	return out
}

// ArrayCopy copies n elements of elemSize bytes between array records,
// the native-memory model of System.arraycopy. Both pages stay pinned for
// the copy; a tier-load failure on the second pin releases the first
// before surfacing.
func (rt *Runtime) ArrayCopy(src PageRef, srcPos int, dst PageRef, dstPos, n, elemSize int) {
	sb, sp := rt.Resolve(src)
	db, dp, err := rt.pinResident(dst)
	if err != nil {
		sp.Unpin()
		panic(&TierFault{Err: err})
	}
	copy(body(db)[dstPos*elemSize:(dstPos+n)*elemSize], body(sb)[srcPos*elemSize:(srcPos+n)*elemSize])
	Pin{dp}.Unpin()
	sp.Unpin()
}
