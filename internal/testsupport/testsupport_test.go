package testsupport

import "testing"

func TestSmallValid(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("Small preset invalid: %v", err)
	}
	if c.NumSMs != 2 {
		t.Errorf("Small NumSMs = %d, want 2", c.NumSMs)
	}
}
