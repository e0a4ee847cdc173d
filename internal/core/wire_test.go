package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
)

// TestSaveBytesPinned pins the bouquet wire format — what Save writes and
// /bouquets/{id}/export serves — byte for byte on two compiles: the 2-D
// fixture at resolution 12 and a 4-D corpus query. The digests were
// recorded before contours kept their assignments as a slice parallel to
// Flats, so they hold the assignFlats/assignPlans arrays to the shape they
// had as a map. A loaded artifact must save back to the same bytes.
func TestSaveBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compile func(t *testing.T) *core.Bouquet
		sha256  string
	}{
		{"2d-res12", func(t *testing.T) *core.Bouquet {
			q := core.Query2D(t)
			space, err := ess.NewSpace(q, []int{12})
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Compile(optimizer.New(cost.NewCoster(q, cost.Postgres())), space, core.CompileOptions{Lambda: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, "f4ba1559fa8b6af9590883e853cc7e9c4c39434d62f5aa17fc92503d9df0fb1d"},
		{"corpus-q0002-4d", func(t *testing.T) *core.Bouquet {
			b, err := corpus.Compile(corpus.GenerateSpec(20140622, 2))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, "c447359399844db84f957db7f6c4156072b0f0cb47e18ae01d43dcdf5e72bca4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.compile(t)
			var saved bytes.Buffer
			if err := b.Save(&saved); err != nil {
				t.Fatal(err)
			}
			// Costs are float sums: an architecture that fuses
			// multiply-adds may move their last bits, so the digest is
			// amd64's. The round trip holds everywhere.
			if sum := sha256.Sum256(saved.Bytes()); runtime.GOARCH == "amd64" && hex.EncodeToString(sum[:]) != tc.sha256 {
				t.Errorf("Save wrote %d bytes with sha256 %x, want %s", saved.Len(), sum, tc.sha256)
			}
			loaded, err := core.Load(bytes.NewReader(saved.Bytes()), b.Coster)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), saved.Bytes()) {
				t.Errorf("Load → Save changed the artifact: %d bytes, was %d", again.Len(), saved.Len())
			}
		})
	}
}
