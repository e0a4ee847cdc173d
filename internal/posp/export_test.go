package posp

// HoldsIndex reports whether d still keeps the plan-numbering index it is
// filled through.
func HoldsIndex(d *Diagram) bool { return d.fill != nil }
