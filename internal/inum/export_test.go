package inum

// seedShape publishes templates under fingerprint fp as a finished
// derivation would, through the same bounded FIFO insert.
func (c *Cache) seedShape(fp string, templates []*Template) {
	en := &shapeEntry{ready: make(chan struct{})}
	en.publish(templates)
	close(en.ready)
	c.mu.Lock()
	c.insert(fp, en)
	c.mu.Unlock()
}
