package a_test

import (
	"fmt"

	"fixture/a"
)

func ExampleForExample() {
	fmt.Println(a.ForExample())
	// Output: 1
}
