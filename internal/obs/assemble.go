// Trace assembly: merge span streams from the three BlindBox parties,
// align their clocks, reconstruct the per-flow span tree, and attribute
// the flow's wall-clock to a critical path. This is the library behind
// `bbtrace -assemble`.
//
// Clock alignment (DESIGN.md §8): span timestamps come from up to three
// machines. For every cross-party parent→child link, the child is known
// to have *started* inside the parent's true-time interval (the parent
// hands work to the child and outlives its start: the middlebox reads the
// hello only after the client sent it, scans start while the forwarder
// lives, and so on — note span *ends* carry no such guarantee, which is
// why only starts are used). Each link therefore bounds the child party's
// clock offset relative to the parent party's:
//
//	parent.Start ≤ child.Start + off ≤ parent.End
//	⇒ off ∈ [parent.Start − child.Start, parent.End − child.Start]
//
// The bounds intersect over all links between a party pair, and the lower
// bound is the estimate: it is tight up to one network transit (the child
// that starts closest to its parent's start — for the middlebox, its
// handshake span starting one hello-transit after the client's connection
// span), while the upper bound is only as tight as the parent's length.
// Offsets propagate breadth-first from the root span's party (offset 0).
// On one host the estimate is within the hello transit of 0.

package obs

import (
	"fmt"
	"sort"
)

// SpanNode is one span placed in its flow's tree. Start/End are the
// aligned times (root party's clock, nanoseconds, clamped into the
// parent's interval so the tree nests); Span keeps the raw record.
type SpanNode struct {
	// Span is the raw record as emitted.
	Span Span
	// Children are the node's child spans, sorted by aligned start.
	Children []*SpanNode
	// Start and End are the aligned, clamped interval bounds.
	Start, End int64
	// SelfCritNs is the critical-path time attributed to this span
	// itself (its interval minus the parts covered by the child chain
	// the critical walk descended into).
	SelfCritNs int64
}

// FlowTrace is one assembled flow: every span sharing a trace ID, rooted
// at the single parentless span.
type FlowTrace struct {
	// Trace is the 32-hex trace ID.
	Trace string
	// Root is the flow's root span (nil when the trace has no
	// parentless span — then every span is in Orphans).
	Root *SpanNode
	// Orphans are spans of this trace not reachable from Root by parent
	// links: missing parents, duplicate/extra roots, ID collisions, or
	// parent cycles. A well-formed trace has none.
	Orphans []Span
	// Partial marks a sampled trace whose rooting party's spans never
	// reached the sink (head decision false at that party, flow
	// uninteresting there): Root is then a synthesized placeholder
	// standing in for the sampled-out root span, not an emitted span.
	Partial bool
	// Offsets maps each party to the nanoseconds added to its clocks
	// during alignment (root party: 0).
	Offsets map[string]int64
	// WallNs is the root span's duration — the flow's wall-clock.
	WallNs int64
	// CritNs is the total critical-path time attributed across the
	// tree; equals WallNs for a well-formed trace.
	CritNs int64
}

// StageStat aggregates one span name inside a flow.
type StageStat struct {
	// Name is the span name (see the Span* constants).
	Name string `json:"name"`
	// Count is how many spans of this name the flow holds.
	Count int `json:"count"`
	// TotalNs sums the spans' durations (may exceed the wall-clock when
	// the stage runs in parallel).
	TotalNs int64 `json:"total_ns"`
	// CritNs is the critical-path time attributed to this stage.
	CritNs int64 `json:"crit_ns"`
	// MaxConc is the peak number of simultaneously-open spans of this
	// name (per-stage concurrency).
	MaxConc int `json:"max_conc"`
	// Tokens/Bytes/Gates/Rows sum the spans' work counters.
	Tokens int `json:"tokens,omitempty"`
	Bytes  int `json:"bytes,omitempty"`
	Gates  int `json:"gates,omitempty"`
	Rows   int `json:"rows,omitempty"`
}

// Interval is a half-open [Start, End) time range in nanoseconds.
type Interval struct {
	// Start and End bound the interval; End < Start is treated as empty.
	Start, End int64
}

// UnionNs returns the total length of the union of the intervals —
// overlap counted once. Used for coverage accounting (what fraction of a
// window the named sub-spans explain).
func UnionNs(iv []Interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([]Interval(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total int64
	curS, curE := sorted[0].Start, sorted[0].End
	for _, v := range sorted[1:] {
		if v.End <= v.Start {
			continue
		}
		if v.Start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = v.Start, v.End
			continue
		}
		if v.End > curE {
			curE = v.End
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// AssembleSpans groups spans by trace ID, builds each flow's span tree
// with clock alignment and critical-path attribution, and returns the
// flows sorted by root start time. Spans without a trace ID (v1 flat
// spans) are returned separately as untraced.
func AssembleSpans(spans []Span) (flows []*FlowTrace, untraced []Span, err error) {
	byTrace := map[string][]Span{}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.SpanID == 0 {
			untraced = append(untraced, sp)
			continue
		}
		if _, perr := ParseTraceID(sp.TraceID); perr != nil {
			return nil, nil, fmt.Errorf("span %q flow %d: %w", sp.Name, sp.Flow, perr)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for id, group := range byTrace {
		flows = append(flows, assembleOne(id, group))
	}
	sort.Slice(flows, func(i, j int) bool {
		si, sj := flowSortKey(flows[i]), flowSortKey(flows[j])
		if si != sj {
			return si < sj
		}
		return flows[i].Trace < flows[j].Trace
	})
	return flows, untraced, nil
}

func flowSortKey(ft *FlowTrace) int64 {
	if ft.Root != nil {
		return ft.Root.Span.Start
	}
	return 0
}

// assembleOne builds a single flow's tree from its raw spans.
func assembleOne(trace string, group []Span) *FlowTrace {
	ft := &FlowTrace{Trace: trace, Offsets: map[string]int64{}}

	// Index spans by ID; duplicates and surplus roots are orphans.
	nodes := map[uint64]*SpanNode{}
	var root *SpanNode
	for _, sp := range group {
		if _, dup := nodes[sp.SpanID]; dup {
			ft.Orphans = append(ft.Orphans, sp)
			continue
		}
		n := &SpanNode{Span: sp}
		nodes[sp.SpanID] = n
		if sp.Parent == 0 {
			if root == nil || sp.Start < root.Span.Start {
				root = n
			}
		}
	}
	if root == nil {
		// No parentless span. For a sampled trace (every span labeled
		// head/tail by a flight recorder) that is expected, not an error:
		// the rooting party's flow was sampled out, so its conn span never
		// reached a sink. Synthesize the missing root instead of orphaning
		// the whole flow.
		root = synthesizeRoot(trace, group, nodes)
		ft.Partial = root != nil
	}
	ft.Root = root
	if root == nil {
		for _, sp := range group {
			ft.Orphans = append(ft.Orphans, sp)
		}
		sortSpans(ft.Orphans)
		return ft
	}

	// Link children; reachability from the root (BFS over child links)
	// is the acyclicity + completeness check: anything unreached —
	// missing parent, second root, or a parent cycle — is an orphan.
	// In a partial trace, spans whose parent was sampled out (any missing
	// parent ID) adopt the synthesized root instead of orphaning.
	for _, n := range nodes {
		if n == root || n.Span.Parent == 0 {
			continue
		}
		if p, ok := nodes[n.Span.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else if ft.Partial {
			root.Children = append(root.Children, n)
		}
	}
	reached := map[*SpanNode]bool{root: true}
	queue := []*SpanNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Children {
			if !reached[c] {
				reached[c] = true
				queue = append(queue, c)
			}
		}
	}
	for _, n := range nodes {
		if !reached[n] {
			ft.Orphans = append(ft.Orphans, n.Span)
		}
	}
	sortSpans(ft.Orphans)
	// Drop unreached nodes' child links into the reached tree: children
	// lists only ever contain reached nodes' subtrees from here on.
	prune(root, reached)

	alignClocks(ft, root)

	// Clamp children into their parents so the tree nests, then walk
	// the critical path.
	root.Start = root.Span.Start + ft.Offsets[root.Span.Party]
	root.End = root.Start + root.Span.Dur
	clamp(root, ft.Offsets)
	ft.WallNs = root.End - root.Start
	markCritical(root)
	ft.CritNs = sumCrit(root)
	return ft
}

// SpanPartialRoot names the placeholder root synthesized for a partial
// sampled trace (see FlowTrace.Partial). It is never emitted by the
// pipeline — only the assembler produces it.
const SpanPartialRoot = "(sampled-out root)"

// synthesizeRoot builds a stand-in root for a rootless sampled trace: the
// most common missing parent ID is, in practice, the sampled-out root span
// every flushed span hangs off (the trace-context root the hello carried),
// so a placeholder under that ID re-adopts the children naturally. Returns
// nil — keeping the legacy all-orphans behavior — unless every span in the
// group carries a Sampled label.
func synthesizeRoot(trace string, group []Span, nodes map[uint64]*SpanNode) *SpanNode {
	missing := map[uint64]int{}
	var earliest *Span
	minStart, maxEnd := int64(0), int64(0)
	for i := range group {
		sp := &group[i]
		if sp.Sampled == "" {
			return nil
		}
		if _, ok := nodes[sp.Parent]; !ok {
			missing[sp.Parent]++
		}
		if earliest == nil || sp.Start < minStart {
			earliest = sp
			minStart = sp.Start
		}
		if end := sp.Start + sp.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	if earliest == nil || len(missing) == 0 {
		return nil
	}
	rootID, best := uint64(0), 0
	for id, n := range missing {
		if n > best || (n == best && id < rootID) {
			rootID, best = id, n
		}
	}
	synth := &SpanNode{Span: Span{
		TraceID: trace, SpanID: rootID, Name: SpanPartialRoot,
		Party: earliest.Party, Flow: earliest.Flow,
		Start: minStart, Dur: maxEnd - minStart,
		Sampled: earliest.Sampled,
	}}
	nodes[rootID] = synth
	return synth
}

func sortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].SpanID < s[j].SpanID
	})
}

func prune(n *SpanNode, reached map[*SpanNode]bool) {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if reached[c] {
			kept = append(kept, c)
			prune(c, reached)
		}
	}
	n.Children = kept
}

// alignClocks estimates per-party clock offsets from cross-party
// parent→child start-containment constraints and stores them in
// ft.Offsets (root party = 0).
func alignClocks(ft *FlowTrace, root *SpanNode) {
	type pair struct{ parent, child string }
	type bound struct {
		lo, hi int64
		ok     bool
	}
	bounds := map[pair]*bound{}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		for _, c := range n.Children {
			if c.Span.Party != n.Span.Party {
				k := pair{n.Span.Party, c.Span.Party}
				lo := n.Span.Start - c.Span.Start
				hi := n.Span.Start + n.Span.Dur - c.Span.Start
				b, ok := bounds[k]
				if !ok {
					bounds[k] = &bound{lo: lo, hi: hi, ok: true}
				} else {
					if lo > b.lo {
						b.lo = lo
					}
					if hi < b.hi {
						b.hi = hi
					}
				}
			}
			walk(c)
		}
	}
	walk(root)

	ft.Offsets[root.Span.Party] = 0
	// BFS over party pairs from the root party. The lower bound is the
	// estimate (see the package comment); an empty intersection means
	// inconsistent clocks, where the midpoint is the best effort left.
	progress := true
	for progress {
		progress = false
		for k, b := range bounds {
			if !b.ok {
				continue
			}
			est := b.lo
			if b.lo > b.hi {
				est = (b.lo + b.hi) / 2
			}
			po, haveP := ft.Offsets[k.parent]
			if _, haveC := ft.Offsets[k.child]; haveP && !haveC {
				ft.Offsets[k.child] = po + est
				progress = true
			}
		}
	}
	// Parties with no cross-party link to the root (shouldn't happen in
	// a well-formed trace) get offset 0.
	var fill func(n *SpanNode)
	fill = func(n *SpanNode) {
		if _, ok := ft.Offsets[n.Span.Party]; !ok {
			ft.Offsets[n.Span.Party] = 0
		}
		for _, c := range n.Children {
			fill(c)
		}
	}
	fill(root)
}

// clamp computes aligned child intervals and clips them into the parent
// so intervals strictly nest (alignment is an estimate; without clipping
// a child could poke microseconds past its parent and break the
// critical-path invariant critical ≤ wall).
func clamp(n *SpanNode, offsets map[string]int64) {
	for _, c := range n.Children {
		c.Start = c.Span.Start + offsets[c.Span.Party]
		c.End = c.Start + c.Span.Dur
		if c.Start < n.Start {
			c.Start = n.Start
		}
		if c.End > n.End {
			c.End = n.End
		}
		if c.End < c.Start {
			c.End = c.Start
		}
		clamp(c, offsets)
	}
	// Children are linked from a map walk, so ties on the aligned start
	// need the span ID as a deterministic tie-break or the rendered tree
	// order varies run to run.
	sort.SliceStable(n.Children, func(i, j int) bool {
		if n.Children[i].Start != n.Children[j].Start {
			return n.Children[i].Start < n.Children[j].Start
		}
		return n.Children[i].Span.SpanID < n.Children[j].Span.SpanID
	})
}

// markCritical walks the chain of last-finishing children: starting from
// the node's end, each gap not covered by a child is the node's own
// critical time, and each covering child is descended into. The node's
// interval is attributed exactly once across its subtree, so the tree's
// total critical time equals the root's duration.
func markCritical(n *SpanNode) {
	byEnd := append([]*SpanNode(nil), n.Children...)
	sort.SliceStable(byEnd, func(i, j int) bool { return byEnd[i].End > byEnd[j].End })
	cursor := n.End
	for _, c := range byEnd {
		if c.End > cursor || c.End == c.Start {
			continue // overlapped by an already-attributed child, or empty
		}
		n.SelfCritNs += cursor - c.End
		markCritical(c)
		cursor = c.Start
		if cursor <= n.Start {
			cursor = n.Start
			break
		}
	}
	n.SelfCritNs += cursor - n.Start
}

func sumCrit(n *SpanNode) int64 {
	total := n.SelfCritNs
	for _, c := range n.Children {
		total += sumCrit(c)
	}
	return total
}

// Nodes returns the flow's tree in preorder (root first, children by
// aligned start).
func (ft *FlowTrace) Nodes() []*SpanNode {
	var out []*SpanNode
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	if ft.Root != nil {
		walk(ft.Root)
	}
	return out
}

// Stages aggregates the flow's spans by name — count, summed and
// critical-path time, peak concurrency, work counters — sorted by
// critical time descending, then name.
func (ft *FlowTrace) Stages() []StageStat {
	byName := map[string]*StageStat{}
	ivals := map[string][]Interval{}
	for _, n := range ft.Nodes() {
		st := byName[n.Span.Name]
		if st == nil {
			st = &StageStat{Name: n.Span.Name}
			byName[n.Span.Name] = st
		}
		st.Count++
		st.TotalNs += n.End - n.Start
		st.CritNs += n.SelfCritNs
		st.Tokens += n.Span.Tokens
		st.Bytes += n.Span.Bytes
		st.Gates += n.Span.Gates
		st.Rows += n.Span.Rows
		ivals[n.Span.Name] = append(ivals[n.Span.Name], Interval{n.Start, n.End})
	}
	var out []StageStat
	for name, st := range byName {
		st.MaxConc = maxConcurrency(ivals[name])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CritNs != out[j].CritNs {
			return out[i].CritNs > out[j].CritNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// maxConcurrency sweeps the intervals and returns the peak overlap.
func maxConcurrency(iv []Interval) int {
	type edge struct {
		t     int64
		delta int
	}
	var edges []edge
	for _, v := range iv {
		if v.End <= v.Start {
			continue
		}
		edges = append(edges, edge{v.Start, 1}, edge{v.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta // close before open at the same instant
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
