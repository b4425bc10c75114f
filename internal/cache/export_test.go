package cache

// FlushAll evicts every dirty line, returning the writebacks in set order.
// Only tests flush: Capri never does (§4.1: "Capri does not insert
// cache-flush instructions"). Unlike Access, the returned writebacks are
// independently allocated.
func (c *Cache) FlushAll() []*Writeback {
	var out []*Writeback
	for i := range c.lines {
		if l := &c.lines[i]; l.words != 0 {
			wb := &Writeback{}
			wb.fill(l)
			out = append(out, wb)
			l.words = 0
		}
	}
	return out
}
