package soa

import "testing"

// TestRowsSharesPlanes: a row view addresses the parent's elements in
// place, and a bad range is a shape panic.
func TestRowsSharesPlanes(t *testing.T) {
	b := NewBlock[float64](5, 3)
	v := b.Rows(1, 4)
	if v.N() != 3 || v.NB() != 3 {
		t.Fatalf("view is %dx%d, want 3x3", v.N(), v.NB())
	}
	v.Re[0], v.Im[v.Len()-1] = 7, -2
	if b.Re[3] != 7 || b.Im[4*3-1] != -2 {
		t.Fatal("writes through the view did not reach the parent block")
	}
	for _, r := range [][2]int{{-1, 2}, {2, 6}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rows(%d, %d) did not panic", r[0], r[1])
				}
			}()
			b.Rows(r[0], r[1])
		}()
	}
}
