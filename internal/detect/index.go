package detect

import (
	"repro/internal/dpienc"
)

// TreeIndex is the search structure BlindBox Detect keeps over the
// *current* expected ciphertext of every rule fragment (§3.2): a binary
// search tree over the 40-bit ciphertexts, the paper's logarithmic
// structure. Lookups happen once per traffic token; updates happen on
// matches (delete the old node, insert the re-salted one). DPIEnc
// ciphertexts are outputs of a pseudorandom permutation, so keys are
// uniform and a plain (unbalanced) BST has expected logarithmic depth for
// search, insert and delete alike; no rebalancing machinery is needed.
type TreeIndex struct {
	root *treeNode
	size int
}

type treeNode struct {
	key         uint64
	entries     []*entry // usually one; >1 only on 40-bit collisions
	left, right *treeNode
}

// NewTreeIndex returns an empty TreeIndex.
func NewTreeIndex() *TreeIndex { return &TreeIndex{} }

// Len returns the number of indexed entries.
func (t *TreeIndex) Len() int { return t.size }

// Lookup returns the entries whose current ciphertext equals c: typically
// zero or one, more only on 40-bit collisions between rule fragments.
func (t *TreeIndex) Lookup(c dpienc.Ciphertext) []*entry {
	key := c.Uint64()
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.entries
		}
	}
	return nil
}

// Update re-indexes e after its expected ciphertext changed from old to
// new (the §3.2 delete-then-insert step).
func (t *TreeIndex) Update(e *entry, old, new dpienc.Ciphertext) {
	t.delete(e, old.Uint64())
	t.insert(e, new.Uint64())
}

func (t *TreeIndex) insert(e *entry, key uint64) {
	t.size++
	pos := &t.root
	for *pos != nil {
		n := *pos
		switch {
		case key < n.key:
			pos = &n.left
		case key > n.key:
			pos = &n.right
		default:
			n.entries = append(n.entries, e)
			return
		}
	}
	*pos = &treeNode{key: key, entries: []*entry{e}}
}

func (t *TreeIndex) delete(e *entry, key uint64) {
	pos := &t.root
	for *pos != nil {
		n := *pos
		switch {
		case key < n.key:
			pos = &n.left
		case key > n.key:
			pos = &n.right
		default:
			for i, x := range n.entries {
				if x == e {
					n.entries[i] = n.entries[len(n.entries)-1]
					n.entries = n.entries[:len(n.entries)-1]
					t.size--
					break
				}
			}
			if len(n.entries) == 0 {
				t.removeNode(pos)
			}
			return
		}
	}
}

// removeNode unlinks the node at *pos using the standard BST deletion:
// leaf/one-child splice, or replace by in-order successor.
func (t *TreeIndex) removeNode(pos **treeNode) {
	n := *pos
	switch {
	case n.left == nil:
		*pos = n.right
	case n.right == nil:
		*pos = n.left
	default:
		// Find the minimum of the right subtree.
		succPos := &n.right
		for (*succPos).left != nil {
			succPos = &(*succPos).left
		}
		succ := *succPos
		*succPos = succ.right
		succ.left, succ.right = n.left, n.right
		*pos = succ
	}
}

// Rebuild reconstructs the index from scratch (after a salt0 reset).
func (t *TreeIndex) Rebuild(entries []*entry) {
	t.root = nil
	t.size = 0
	for _, e := range entries {
		t.insert(e, e.cur.Uint64())
	}
}
