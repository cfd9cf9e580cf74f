package lint

// All returns every analyzer, in stable order. Each one guards a
// convention an earlier PR established and documented in DESIGN.md;
// the Doc strings name the invariant so a diagnostic is traceable to
// the discipline it enforces.
func All() []*Analyzer {
	return []*Analyzer{
		Floatdet,
		Errbody,
		Ctxflow,
	}
}
