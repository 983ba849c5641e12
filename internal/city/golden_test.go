package city

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/strategy"
)

// hashingPlane forwards every operation to a plane and folds each
// operation's directive list into an FNV-64a hash: the directive count
// (so a directive cannot drift across operation boundaries unnoticed),
// then every directive's user, extender and reassociation flag.
type hashingPlane struct {
	Plane
	h   hash.Hash64
	buf [8]byte
	ops int
}

func (p *hashingPlane) word(v int) {
	binary.LittleEndian.PutUint64(p.buf[:], uint64(int64(v)))
	p.h.Write(p.buf[:])
}

func (p *hashingPlane) fold(dirs []control.Directive) {
	p.ops++
	p.word(len(dirs))
	for _, d := range dirs {
		p.word(d.UserID)
		p.word(d.Extender)
		if d.Reassociation {
			p.word(1)
		} else {
			p.word(0)
		}
	}
}

func (p *hashingPlane) Join(id int, rates, rssi []float64) ([]control.Directive, error) {
	dirs, err := p.Plane.Join(id, rates, rssi)
	p.fold(dirs)
	return dirs, err
}

func (p *hashingPlane) Update(id int, rates, rssi []float64) ([]control.Directive, error) {
	dirs, err := p.Plane.Update(id, rates, rssi)
	p.fold(dirs)
	return dirs, err
}

func (p *hashingPlane) Leave(id int) ([]control.Directive, bool) {
	dirs, ok := p.Plane.Leave(id)
	p.fold(dirs)
	return dirs, ok
}

// TestCityGoldenDirectiveStream pins the exact directive stream of small
// seeded cities — budgeted wolt-hillclimb planes that repair on every
// join, roaming update and leave, and a placement-only-joins plane — to
// hashes recorded before the delta-probe, candidate-cache and
// sweep-order kernels were last reworked. Those kernels promise bit-identical
// decisions (DESIGN.md §7, §10); any change to a probe's floating-point
// sequence, a candidate list or the sweep's visit order shows up here as
// a different hash.
func TestCityGoldenDirectiveStream(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ops  int
		want uint64
	}{
		{
			// Light load: many cells are WiFi-bound, so the climb
			// commits moves and ties in the sweep order (users already
			// on their best link) decide the visit order.
			name: "hillclimb-sparse",
			cfg: Config{
				Shards:          2,
				TargetUsers:     300,
				Horizon:         40,
				DwellMean:       20,
				UpdateMean:      15,
				Policy:          "wolt-hillclimb",
				Budget:          strategy.Budget{Probes: 200},
				ReassignOnLeave: true,
				Seed:            1301,
			},
			ops:  2250,
			want: 0xa58437c95f6bd28,
		},
		{
			name: "hillclimb-dense",
			cfg: Config{
				Shards:          3,
				TargetUsers:     600,
				Horizon:         20,
				DwellMean:       10,
				UpdateMean:      25,
				Policy:          "wolt-hillclimb",
				Budget:          strategy.Budget{Probes: 200},
				ReassignOnLeave: true,
				Seed:            1301,
			},
			ops:  3306,
			want: 0xf2f0464f45858276,
		},
		{
			name: "placement-only",
			cfg: Config{
				Shards:             2,
				TargetUsers:        800,
				Horizon:            20,
				DwellMean:          10,
				Policy:             "wolt-hillclimb",
				Budget:             strategy.Budget{Probes: 200},
				PlacementOnlyJoins: true,
				Seed:               1302,
			},
			ops:  3813,
			want: 0x6f9b32ba0924ef22,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := c.NewCoordinator()
			if err != nil {
				t.Fatal(err)
			}
			p := &hashingPlane{Plane: coord, h: fnv.New64a()}
			if _, err := c.Run(p); err != nil {
				t.Fatal(err)
			}
			if got := p.h.Sum64(); p.ops != tc.ops || got != tc.want {
				t.Errorf("directive stream: %d ops hash %#x, want %d ops hash %#x", p.ops, got, tc.ops, tc.want)
			}
		})
	}
}
