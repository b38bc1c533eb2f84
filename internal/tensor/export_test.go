package tensor

// New creates a tensor with the given identity and shape.
func New(id string, shape Shape, dtype DType) *Tensor {
	return &Tensor{ID: id, Shape: shape, DType: dtype, Status: Freed, Idx: -1}
}

// OnDevice reports whether the tensor holds device memory at all (including
// an in-flight swap-in whose buffer is already allocated).
func (t *Tensor) OnDevice() bool {
	return t.Status == In || t.Status == SwappingOut || t.Status == SwappingIn
}

// ComputeFingerprint is FingerprintFrom keyed by the op's ID.
func ComputeFingerprint(opID string, outputIndex int, inputs []uint64) uint64 {
	return FingerprintFrom(HashSeed(opID), outputIndex, inputs)
}
