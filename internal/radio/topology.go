package radio

import (
	"fmt"
	"math"
	"math/rand"
)

// Topology is a set of node positions, produced by the generators below
// and consumed when building deployments. Index i is the position of the
// i-th node.
type Topology []Position

// GridTopology lays out n nodes on a near-square grid with the given
// spacing in meters. The first position is the grid corner (0,0), which
// deployments conventionally use for the border router.
func GridTopology(n int, spacing float64) Topology {
	if n <= 0 {
		panic(fmt.Sprintf("radio: GridTopology n=%d", n))
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	t := make(Topology, n)
	for i := 0; i < n; i++ {
		t[i] = Position{
			X: float64(i%cols) * spacing,
			Y: float64(i/cols) * spacing,
		}
	}
	return t
}

// LineTopology lays out n nodes on a line with the given spacing: the
// canonical multi-hop chain for latency experiments (E3).
func LineTopology(n int, spacing float64) Topology {
	if n <= 0 {
		panic(fmt.Sprintf("radio: LineTopology n=%d", n))
	}
	t := make(Topology, n)
	for i := 0; i < n; i++ {
		t[i] = Position{X: float64(i) * spacing}
	}
	return t
}

// ConnectedRandomTopology scatters n nodes uniformly over a w×h meter
// area using rng, retrying each placement until the node is within
// maxLink of some earlier-placed node, guaranteeing a connected
// deployment. Position 0 is forced to the area center so the border
// router sits mid-field.
func ConnectedRandomTopology(n int, w, h, maxLink float64, rng *rand.Rand) Topology {
	if n <= 0 {
		panic(fmt.Sprintf("radio: ConnectedRandomTopology n=%d", n))
	}
	t := make(Topology, 0, n)
	t = append(t, Position{X: w / 2, Y: h / 2})
	for len(t) < n {
		p := Position{X: rng.Float64() * w, Y: rng.Float64() * h}
		for _, q := range t {
			if p.Distance(q) <= maxLink {
				t = append(t, p)
				break
			}
		}
	}
	return t
}

// Bounds returns the width and height of the topology's bounding box.
func (t Topology) Bounds() (w, h float64) {
	for _, p := range t {
		if p.X > w {
			w = p.X
		}
		if p.Y > h {
			h = p.Y
		}
	}
	return w, h
}
