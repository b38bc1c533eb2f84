package bufs

import "testing"

func TestResized(t *testing.T) {
	buf := []int{1, 2, 3, 4}
	got := Resized(buf, 3)
	if len(got) != 3 || &got[0] != &buf[0] {
		t.Fatalf("Resized(buf, 3) = %v, want buf's storage resliced", got)
	}
	for i, v := range got {
		if v != 0 {
			t.Errorf("Resized(buf, 3)[%d] = %d, want 0", i, v)
		}
	}
	if grown := Resized(buf, 5); len(grown) != 5 || &grown[0] == &buf[0] {
		t.Errorf("Resized(buf, 5) = %v, want a new slice of 5", grown)
	}
}
