package hostproc

import "fmt"

// Host returns the host PE of an array.
func (c *Coordinator) Host(array int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctl, ok := c.arrays[array]
	if !ok {
		return 0, fmt.Errorf("hostproc: unknown array %d", array)
	}
	return ctl.host, nil
}

// Version returns the array's current version number (0 for the
// original allocation, incremented by each re-initialization).
func (c *Coordinator) Version(array int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctl, ok := c.arrays[array]
	if !ok {
		return 0, fmt.Errorf("hostproc: unknown array %d", array)
	}
	return ctl.version, nil
}
