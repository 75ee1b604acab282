package gpm

import "testing"

func TestByName(t *testing.T) {
	for _, name := range []string{"performance", "equal", "variation", "thermal", "mpc", "cache"} {
		p, err := ByName(name)
		if err != nil || p == nil {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(\"nope\") accepted an unknown policy name")
	}
}
