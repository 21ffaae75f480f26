package check

import "tssim/internal/bus"

// Serialized hands t to the grant hook as the fabric does at its
// serialization point, so a test can grant a payload no fabric would.
func (k *Checker) Serialized(now uint64, t *bus.Txn) { k.onSerialized(now, t) }
