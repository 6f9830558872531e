package swarm

import (
	"slices"

	"consumelocal/internal/trace"
)

// Grouper partitions traces into swarms from caller-owned scratch: the
// key map, swarm headers, pointer slice and one session arena are all
// reused across calls, so repeated grouping — one call per simulation
// run — stops allocating once the buffers have grown to the workload.
//
// Ownership: the []*Swarm returned by Group, the Swarm values it points
// to and their Sessions slices are owned by the Grouper and remain valid
// only until the next Group call on the same Grouper. The zero value is
// ready to use; a Grouper must not be used from multiple goroutines
// concurrently.
type Grouper struct {
	ids    map[Key]int32
	counts []int32
	swarms []Swarm
	out    []*Swarm
	arena  []trace.Session
}

// Group partitions the trace's sessions into swarms under the given
// options. The returned slice is sorted by key (content, ISP, bitrate),
// so iteration order — and therefore every downstream aggregate — is
// deterministic; members keep trace order. See the type comment for the
// ownership rules.
func (g *Grouper) Group(t *trace.Trace, opts Options) []*Swarm {
	if g.ids == nil {
		g.ids = make(map[Key]int32)
	} else {
		clear(g.ids)
	}

	// Pass 1: assign each distinct key an id and count its sessions.
	counts := g.counts[:0]
	for _, s := range t.Sessions {
		k := KeyOf(s, opts)
		id, ok := g.ids[k]
		if !ok {
			id = int32(len(counts))
			g.ids[k] = id
			counts = append(counts, 0)
		}
		counts[id]++
	}
	g.counts = counts
	n := len(counts)

	if cap(g.swarms) < n {
		g.swarms = make([]Swarm, n)
	}
	swarms := g.swarms[:n]
	if cap(g.arena) < len(t.Sessions) {
		g.arena = make([]trace.Session, len(t.Sessions))
	}
	arena := g.arena[:len(t.Sessions)]

	// Carve the arena into one capacity-bounded slice per swarm, so the
	// appends of pass 2 fill it in place without ever reallocating.
	off := 0
	for id, c := range counts {
		end := off + int(c)
		swarms[id] = Swarm{Sessions: arena[off:off:end]}
		off = end
	}

	// Pass 2: place each session into its swarm, preserving trace order.
	for _, s := range t.Sessions {
		k := KeyOf(s, opts)
		id := g.ids[k]
		swarms[id].Key = k
		swarms[id].Sessions = append(swarms[id].Sessions, s)
	}

	if cap(g.out) < n {
		g.out = make([]*Swarm, n)
	}
	out := g.out[:n]
	for i := range swarms {
		out[i] = &swarms[i]
	}
	slices.SortFunc(out, cmpSwarmKey)
	g.out = out
	return out
}

// cmpSwarmKey orders swarms by key, the package's deterministic
// iteration order.
func cmpSwarmKey(a, b *Swarm) int {
	if a.Key.Less(b.Key) {
		return -1
	}
	if b.Key.Less(a.Key) {
		return 1
	}
	return 0
}
