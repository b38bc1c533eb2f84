// Package bufs holds helpers for reusing slice storage across runs.
package bufs

// Resized returns buf resliced to n and cleared, or a new slice of n
// when buf's backing array is too small.
func Resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
