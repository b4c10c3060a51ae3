// Package suppress exercises the //lint:ignore machinery: justified
// directives silence their finding, while unused and malformed directives
// are themselves reported under the lint-directive pseudo-rule.
package suppress

import (
	"io"
	"log/slog"
)

func lineAbove(c io.Closer) {
	//lint:ignore unchecked-err fixture demonstrating a justified suppression
	c.Close()
}

func sameLine(c io.Closer) {
	c.Close() //lint:ignore unchecked-err fixture demonstrating same-line suppression
}

//lint:ignore weak-rand this directive matches no finding and must be reported
var unused = 0

//lint:ignore
var malformed = 0

// token is pre-encryption plaintext used by the secret-flow cases below.
var token = []byte("keyword") //bb:secret

// secretSuppressed demonstrates a justified secret-flow suppression: the
// directive names the rule and gives a reason, so the flow is silent.
func secretSuppressed() {
	//lint:ignore secret-flow fixture demonstrating a reviewed, accepted flow
	slog.Info("rule token", "t", token)
}

//lint:ignore secret-flow this directive matches no finding and must be reported
var unusedSecret = 0

// hotSuppressed demonstrates a justified hotpath-alloc suppression on an
// amortized append.
//
//bb:hotpath
func hotSuppressed(in []byte, out []int) []int {
	for i := range in {
		//lint:ignore hotpath-alloc fixture: growth amortizes to steady-state capacity
		out = append(out, i)
	}
	return out
}

//lint:ignore hotpath-alloc this directive matches no finding and must be reported
var unusedHotpath = 0
