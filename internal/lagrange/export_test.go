package lagrange

// Test-model builders shared with the external golden test, which needs
// BIPGen models and so cannot live in package lagrange.
var (
	IntegerBlockModel = integerBlockModel
	WithCostCaps      = withCostCaps
)
