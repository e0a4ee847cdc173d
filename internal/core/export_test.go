package core

import (
	"testing"

	"repro/internal/query"
)

// Query2D exposes the 2-D fixture query to the external test package.
func Query2D(t testing.TB) *query.Query { return query2D(t) }
