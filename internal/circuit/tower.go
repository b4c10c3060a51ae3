// The AES field inverse in the tower field GF(((2²)²)²), which is what makes
// the S-box cost 36 AND gates: an inverse in a quadratic extension is three
// multiplications and one inverse in the field below, and two levels down
// the inverse is a squaring, which is linear and so free to garble.
//
// Polynomial bases throughout, the high half of an element holding the
// coefficient of the extension's generator:
//
//	GF(2²) = GF(2)[W]/(W²+W+1)    2 bits
//	GF(2⁴) = GF(2²)[Z]/(Z²+Z+N)   4 bits
//	GF(2⁸) = GF(2⁴)[Y]/(Y²+Y+ν)   8 bits
//
// With X² = X + c, Karatsuba gives
//
//	(h₁X + l₁)(h₂X + l₂) = (m + ll)X + (hh·c + ll),   m = (h₁+l₁)(h₂+l₂)
//	(hX + l)⁻¹           = (h·Δ⁻¹)X + (h+l)·Δ⁻¹,      Δ = h²c + l(h+l)
//
// so a GF(2²) product is 3 ANDs, a GF(2⁴) product 9, and the GF(2⁸) inverse
// 3·9 + (3·3 + 0) = 36. Squaring, multiplying by the constants N and ν, the
// change of basis from and to the AES representation and the S-box's affine
// map are GF(2)-linear: XOR only.
//
// Nothing here is transcribed. An integer model of the three multiplications
// comes first; N, ν, the isomorphism and every linear map are derived from it
// when the package initialises, and the tests check each circuit level
// against it on every operand.

package circuit

// mul2 multiplies in GF(2²).
func mul2(a, b byte) byte {
	a1, a0, b1, b0 := a>>1, a&1, b>>1, b&1
	hh, ll, m := a1&b1, a0&b0, (a1^a0)&(b1^b0)
	return (m^ll)<<1 | (hh ^ ll)
}

// mulExt multiplies two elements of 2·half bits in the quadratic extension
// X² = X + c of the half-bit field whose multiplication is mul.
func mulExt(a, b byte, half uint, c byte, mul func(a, b byte) byte) byte {
	mask := byte(1)<<half - 1
	ah, al, bh, bl := a>>half, a&mask, b>>half, b&mask
	hh, ll, m := mul(ah, bh), mul(al, bl), mul(ah^al, bh^bl)
	return (m^ll)<<half | (mul(hh, c) ^ ll)
}

// mul4 multiplies in GF(2⁴).
func mul4(a, b byte) byte { return mulExt(a, b, 2, towerN, mul2) }

// mul8 multiplies in GF(2⁸), tower representation.
func mul8(a, b byte) byte { return mulExt(a, b, 4, towerNu, mul4) }

// mustFirst returns the first v below n for which ok holds. Every search
// below is over a finite field that is known to contain what is sought, so
// a miss is a bug in the model, not a condition to handle.
func mustFirst(n int, ok func(v byte) bool) byte {
	for v := 0; v < n; v++ {
		if ok(byte(v)) {
			return byte(v)
		}
	}
	panic("circuit: tower-field search came up empty")
}

// irreducible reports whether x² + x + c has no root among the n elements
// of the field multiplied by mul — the condition for X² = X + c to define
// the next field up.
func irreducible(n int, c byte, mul func(a, b byte) byte) bool {
	for x := 0; x < n; x++ {
		if mul(byte(x), byte(x))^byte(x)^c == 0 {
			return false
		}
	}
	return true
}

// towerN and towerNu are the constants N and ν of the two extensions: the
// first values that leave the defining quadratic irreducible.
var (
	towerN  = mustFirst(4, func(c byte) bool { return irreducible(4, c, mul2) })
	towerNu = mustFirst(16, func(c byte) bool { return irreducible(16, c, mul4) })
)

// linearMap is a GF(2)-linear map on up to 8 bits, stored by columns: entry
// i is the image of the unit vector 1<<i.
type linearMap []byte

// newLinearMap tabulates the width-bit linear function f.
func newLinearMap(width int, f func(x byte) byte) linearMap {
	m := make(linearMap, width)
	for i := range m {
		m[i] = f(1 << uint(i))
	}
	return m
}

// apply evaluates the map on an integer (model and init only).
func (m linearMap) apply(x byte) byte {
	var out byte
	for i, col := range m {
		if x&(1<<uint(i)) != 0 {
			out ^= col
		}
	}
	return out
}

// The linear maps the inverter uses, each derived from the model.
var (
	// sq2 squares in GF(2²), which is also inversion there (x³ = 1).
	sq2 = newLinearMap(2, func(x byte) byte { return mul2(x, x) })
	// timesN multiplies by N in GF(2²), for the GF(2⁴) product.
	timesN = newLinearMap(2, func(x byte) byte { return mul2(x, towerN) })
	// sqTimesN and sqTimesNu are h ↦ h²c, the first term of Δ.
	sqTimesN  = newLinearMap(2, func(x byte) byte { return mul2(mul2(x, x), towerN) })
	sqTimesNu = newLinearMap(4, func(x byte) byte { return mul4(mul4(x, x), towerNu) })

	// toTower carries the AES representation GF(2)[x]/(x⁸+x⁴+x³+x+1) into
	// the tower: β is the first tower element that is a root of the AES
	// polynomial, and xⁱ ↦ βⁱ.
	toTower = func() linearMap {
		beta := mustFirst(256, func(b byte) bool {
			b2 := mul8(b, b)
			b4 := mul8(b2, b2)
			return mul8(b4, b4)^b4^mul8(b2, b)^b^1 == 0
		})
		m, p := make(linearMap, 8), byte(1)
		for i := range m {
			m[i], p = p, mul8(p, beta)
		}
		return m
	}()
	// fromTowerAffine is the way back composed with the linear part of the
	// S-box's affine map, so the S-box leaves the tower and is finished in
	// one layer of XORs. The isomorphism is inverted by table.
	fromTowerAffine = func() linearMap {
		var back [256]byte
		for v := 0; v < 256; v++ {
			back[toTower.apply(byte(v))] = byte(v)
		}
		return newLinearMap(8, func(x byte) byte { return affine(back[x]) ^ affine(0) })
	}()
)

// linear applies m to circuit bits (LSB first): output bit j is the XOR of
// the inputs whose column has bit j set.
func linear(b *Builder, m linearMap, x []Ref) []Ref {
	out := make([]Ref, len(x))
	for j := range out {
		out[j] = Const(false)
		for i, col := range m {
			if col&(1<<uint(j)) != 0 {
				out[j] = b.XOR(out[j], x[i])
			}
		}
	}
	return out
}

// fieldOp is a two-operand circuit operation on field elements.
type fieldOp func(b *Builder, x, y []Ref) []Ref

// cmul2 multiplies in GF(2²): 3 AND gates.
func cmul2(b *Builder, x, y []Ref) []Ref {
	hh, ll := b.AND(x[1], y[1]), b.AND(x[0], y[0])
	m := b.AND(b.XOR(x[1], x[0]), b.XOR(y[1], y[0]))
	return []Ref{b.XOR(hh, ll), b.XOR(m, ll)}
}

// cmulExt multiplies in the quadratic extension X² = X + c of the field
// multiplied by mul, timesC being multiplication by c there.
func cmulExt(b *Builder, x, y []Ref, mul fieldOp, timesC linearMap) []Ref {
	half := len(x) / 2
	xl, xh, yl, yh := x[:half], x[half:], y[:half], y[half:]
	hh, ll := mul(b, xh, yh), mul(b, xl, yl)
	m := mul(b, b.XORWords(xh, xl), b.XORWords(yh, yl))
	return append(b.XORWords(linear(b, timesC, hh), ll), b.XORWords(m, ll)...)
}

// cmul4 multiplies in GF(2⁴): 9 AND gates.
func cmul4(b *Builder, x, y []Ref) []Ref { return cmulExt(b, x, y, cmul2, timesN) }

// cinvExt inverts hX + l in the quadratic extension X² = X + c (0 ↦ 0):
// three multiplications and one inversion in the field below, sqTimesC
// being h ↦ h²c there.
func cinvExt(b *Builder, x []Ref, mul fieldOp, inv func(*Builder, []Ref) []Ref, sqTimesC linearMap) []Ref {
	half := len(x) / 2
	l, h := x[:half], x[half:]
	s := b.XORWords(h, l)
	d := inv(b, b.XORWords(linear(b, sqTimesC, h), mul(b, l, s)))
	return append(mul(b, s, d), mul(b, h, d)...)
}

// cinv2 inverts in GF(2²): a squaring, no AND gate.
func cinv2(b *Builder, x []Ref) []Ref { return linear(b, sq2, x) }

// cinv4 inverts in GF(2⁴): 9 AND gates.
func cinv4(b *Builder, x []Ref) []Ref { return cinvExt(b, x, cmul2, cinv2, sqTimesN) }

// cinv8 inverts in GF(2⁸), tower representation: 36 AND gates.
func cinv8(b *Builder, x []Ref) []Ref { return cinvExt(b, x, cmul4, cinv4, sqTimesNu) }
