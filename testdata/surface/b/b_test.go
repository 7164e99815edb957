package b

import (
	"testing"

	"fixture/a"
)

func TestOther(t *testing.T) {
	if a.ForOtherTest() != 2 {
		t.Fail()
	}
}
