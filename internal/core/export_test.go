package core

// Hooks for the external core_test package.

var SubSeed = subSeed

// BuiltWidth sums the widths of the expander graphs b's stages were built
// on, independently of how b's MaxName was computed.
func BuiltWidth(b *Basic) int64 {
	var w int64
	for _, m := range b.stages {
		w += int64(m.Graph().M)
	}
	return w
}

// PolyLogsOf returns the PolyLog objects r is built from, in construction
// order (none for algorithms without a PolyLog stage).
func PolyLogsOf(r any) []*PolyLog {
	switch r := r.(type) {
	case *PolyLog:
		return []*PolyLog{r}
	case *Efficient:
		return []*PolyLog{r.poly}
	case *AlmostAdaptive:
		return r.levels
	case *Adaptive:
		var pls []*PolyLog
		for _, e := range r.levels {
			pls = append(pls, e.poly)
		}
		return pls
	}
	return nil
}
