// Package fixture is the code the mutants command's own tests mutate.
package fixture

// Add returns a + b. TestAdd checks it.
func Add(a, b int) int {
	return a + b
}

// Double returns 2x. No test checks it, so its mutants survive.
func Double(x int) int {
	return 2 * x
}
