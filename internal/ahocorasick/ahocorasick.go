// Package ahocorasick implements the Aho–Corasick multi-pattern string
// matching automaton. It is the engine of the plaintext Snort-like IDS
// baseline that the paper compares BlindBox's middlebox throughput against
// (§7.2.3), and the ground truth for detection-accuracy experiments (§7.1).
package ahocorasick

// Match is one pattern occurrence.
type Match struct {
	// Pattern is the index of the matched pattern in the builder order.
	Pattern int
	// End is the byte offset just past the match in the logical stream.
	End int
}

// Start returns the match's starting offset given the pattern lengths held
// by the automaton that produced it.
func (m Match) Start(a *Automaton) int { return m.End - len(a.patterns[m.Pattern]) }

type node struct {
	next [256]int32 // goto function, -1 if absent (pre-failure resolution)
	fail int32
	out  []int32 // pattern indices terminating here
}

// Automaton is an immutable matching automaton over byte strings.
type Automaton struct {
	nodes    []node
	patterns [][]byte
}

// New builds an automaton for the given patterns. Empty patterns are
// ignored. Duplicate patterns each report their own index.
func New(patterns [][]byte) *Automaton {
	a := &Automaton{patterns: patterns}
	a.nodes = make([]node, 1, 64)
	for i := range a.nodes[0].next {
		a.nodes[0].next[i] = -1
	}
	for pi, p := range patterns {
		if len(p) == 0 {
			continue
		}
		cur := int32(0)
		for _, c := range p {
			nxt := a.nodes[cur].next[c]
			if nxt == -1 {
				nxt = int32(len(a.nodes))
				var n node
				for i := range n.next {
					n.next[i] = -1
				}
				n.fail = 0
				a.nodes = append(a.nodes, n)
				a.nodes[cur].next[c] = nxt
			}
			cur = nxt
		}
		a.nodes[cur].out = append(a.nodes[cur].out, int32(pi))
	}

	// BFS to assign failure links and convert to a complete DFA.
	queue := make([]int32, 0, len(a.nodes))
	for c := 0; c < 256; c++ {
		if nxt := a.nodes[0].next[c]; nxt == -1 {
			a.nodes[0].next[c] = 0
		} else {
			a.nodes[nxt].fail = 0
			queue = append(queue, nxt)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		fail := a.nodes[u].fail
		a.nodes[u].out = append(a.nodes[u].out, a.nodes[fail].out...)
		for c := 0; c < 256; c++ {
			v := a.nodes[u].next[c]
			if v == -1 {
				a.nodes[u].next[c] = a.nodes[fail].next[c]
				continue
			}
			a.nodes[v].fail = a.nodes[fail].next[c]
			queue = append(queue, v)
		}
	}
	return a
}

// NumPatterns returns how many patterns the automaton was built from.
func (a *Automaton) NumPatterns() int { return len(a.patterns) }

// NumStates returns the automaton's state count.
func (a *Automaton) NumStates() int { return len(a.nodes) }

// Scanner is streaming matching state over one logical bytestream.
type Scanner struct {
	a      *Automaton
	state  int32
	offset int
}

// NewScanner returns a scanner positioned at stream offset 0.
func (a *Automaton) NewScanner() *Scanner { return &Scanner{a: a} }

// Scan consumes data and returns all matches that end within it. Matches
// spanning Scan calls are found, since the automaton state carries over.
func (s *Scanner) Scan(data []byte) []Match {
	var out []Match
	nodes := s.a.nodes
	st := s.state
	for i, c := range data {
		st = nodes[st].next[c]
		if len(nodes[st].out) > 0 {
			for _, pi := range nodes[st].out {
				out = append(out, Match{Pattern: int(pi), End: s.offset + i + 1})
			}
		}
	}
	s.state = st
	s.offset += len(data)
	return out
}

// Offset returns the number of bytes consumed so far.
func (s *Scanner) Offset() int { return s.offset }

// Skip advances the stream past n bytes that will never be scanned. The
// automaton restarts from its root, so no match spans the gap, and later
// matches keep their absolute offsets.
func (s *Scanner) Skip(n int) {
	s.state = 0
	s.offset += n
}

// FindAll is a one-shot convenience over a complete buffer.
func (a *Automaton) FindAll(data []byte) []Match {
	return a.NewScanner().Scan(data)
}

// Contains reports whether any pattern occurs in data, stopping early.
func (a *Automaton) Contains(data []byte) bool {
	st := int32(0)
	for _, c := range data {
		st = a.nodes[st].next[c]
		if len(a.nodes[st].out) > 0 {
			return true
		}
	}
	return false
}
