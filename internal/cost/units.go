// Dimensional unit types for the quantities the bouquet guarantee is
// stated over. Every number in the MSO argument has a dimension — a
// selectivity in (0,1], a plan cost in model units, a row cardinality, or
// a dimensionless ratio — and mixing them silently corrupts the bound the
// same way mis-estimated selectivities corrupt a classical optimizer.
// Defining each dimension as its own float64 type makes the Go type
// checker reject cross-unit assignment and arithmetic outright.
//
// Conversion discipline: entering a dimension is an explicit conversion
// (cost.Sel(x)); leaving it is the F method. A value laundered through a
// plain float64 in between is out of the type checker's sight; a mix-up
// there that changes a cost moves the golden costs the tests and the
// plan-regression corpus pin.

package cost

// Sel is a predicate selectivity: a dimensionless fraction in (0,1]
// (paper §2). query.Builder and ess.Space.Check enforce the domain at
// run time; the type enforces the dimension on variables.
type Sel float64

// Cost is a plan cost in abstract optimizer cost-model units (the unit
// every isocost budget, contour step, and MSO numerator is denominated
// in).
type Cost float64

// Card is a row cardinality: an estimated or actual tuple count.
type Card float64

// Ratio is a dimensionless quantity: the isocost ladder ratio r, the
// anorexic slack λ, an MSO or sub-optimality factor — anything obtained
// by dividing two like-dimensioned quantities.
type Ratio float64

// F unwraps the selectivity to a bare float64 for unit-free numerics.
func (s Sel) F() float64 { return float64(s) }

// F unwraps the cost to a bare float64 for unit-free numerics.
func (c Cost) F() float64 { return float64(c) }

// F unwraps the cardinality to a bare float64 for unit-free numerics.
func (c Card) F() float64 { return float64(c) }

// F unwraps the ratio to a bare float64 for unit-free numerics.
func (r Ratio) F() float64 { return float64(r) }

// Scale multiplies a cost by a dimensionless ratio, yielding a cost —
// the only sanctioned way to inflate a budget (e.g. by 1+λ).
func (c Cost) Scale(r Ratio) Cost { return Cost(float64(c) * float64(r)) }

// Over divides two costs, yielding the dimensionless ratio between them
// (the MSO bound's shape: spend over oracle cost).
func (c Cost) Over(d Cost) Ratio { return Ratio(float64(c) / float64(d)) }
