package exec

import (
	"reflect"
	"testing"
	"unsafe"

	"capuchin/internal/graph"
)

// TestAccessFitsInRegisters guards the register-size contract of Access:
// Policy.OnAccess takes it by value on every tensor access, and the amd64
// register ABI passes a struct in registers only while it has few enough
// word-sized fields. Past that it is copied through memory (duffcopy) on
// every call; this test fails before that can return silently. The
// contract is stated for a 64-bit word: on a 32-bit target int64 and
// sim.Time fields span two words, so the test skips there.
func TestAccessFitsInRegisters(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) < 8 {
		t.Skip("register-size contract assumes a 64-bit word")
	}
	const maxFields = 8
	typ := reflect.TypeOf(Access{})
	if n := typ.NumField(); n > maxFields {
		t.Errorf("exec.Access has %d fields, want at most %d", n, maxFields)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Size() > unsafe.Sizeof(uintptr(0)) {
			t.Errorf("exec.Access.%s is %d bytes, wider than a word", f.Name, f.Type.Size())
		}
	}
	if size, limit := unsafe.Sizeof(Access{}), maxFields*unsafe.Sizeof(uintptr(0)); size > limit {
		t.Errorf("exec.Access is %d bytes, want at most %d", size, limit)
	}
}

func TestAccessNodeID(t *testing.T) {
	if id := (Access{Kind: Dealloc}).NodeID(); id != "" {
		t.Errorf("dealloc NodeID = %q, want empty", id)
	}
	if id := (Access{Kind: Read, Node: &graph.Node{ID: "conv1"}}).NodeID(); id != "conv1" {
		t.Errorf("read NodeID = %q, want conv1", id)
	}
}
