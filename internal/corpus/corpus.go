// Package corpus generates the synthetic datasets that stand in for the
// paper's proprietary or unavailable inputs (DESIGN.md substitutions #4–#6):
//
//   - site profiles modeling the five Fig. 3/4 pages (YouTube, AirBnB,
//     CNN, NYTimes, Project Gutenberg) and an Alexa-top-50-like page set
//     for Figs. 5 and 6, with realistic text/binary ratios and delimiter
//     densities;
//
//   - rulesets whose protocol-class mix matches each Table 1 dataset
//     (document watermarking, parental filtering, Snort Community, Snort
//     Emerging Threats, McAfee Stonesoft, Lastline);
//
//   - an ICTF-like attack trace: benign HTTP flows with rule keywords
//     injected, including a controlled fraction of boundary-misaligned
//     injections that delimiter tokenization legitimately misses (§7.1).
//
// All generation is deterministic given a seed.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/httpsim"
)

// words is a vocabulary for synthetic text/code; mixing identifiers, HTML
// and prose approximates web-page delimiter density.
var words = strings.Fields(`
the quick brown fox jumps over lazy dog while reading network protocol
middlebox inspection encrypted traffic tokens payload keyword detection
div span class style script function return const var document window
content article section header footer title index login user password
query search result page home about contact profile settings account
video image media player stream render layout margin padding border
`)

var attrs = []string{"id", "class", "href", "src", "style", "data-v", "lang", "rel"}

// TextOption post-processes a synthesized payload in place. Options let
// callers pin content at exact offsets instead of deriving placement from
// rng draws, which keeps ground-truth bookkeeping exact (the evasion
// corpora depend on knowing precisely where a rule hit sits).
type TextOption func(payload []byte)

// WithHit pins a rule-hit placement: the payload bytes [at, at+len(data))
// are overwritten with data. Overwriting (rather than splicing) preserves
// the payload length, so every pinned offset — including other WithHit
// placements — stays exact. Placements must lie fully inside the payload.
func WithHit(at int, data []byte) TextOption {
	return func(payload []byte) {
		if at < 0 || at+len(data) > len(payload) {
			panic(fmt.Sprintf("corpus: pinned hit [%d:%d) outside payload of %d bytes",
				at, at+len(data), len(payload)))
		}
		copy(payload[at:], data)
	}
}

// SynthesizeTextSeeded is SynthesizeText with a self-contained
// deterministic source, so callers outside the workload packages do not
// need to import math/rand themselves. Options run after synthesis, in
// order; see WithHit for pinning rule-hit placements exactly.
func SynthesizeTextSeeded(seed int64, n int, opts ...TextOption) []byte {
	payload := SynthesizeText(rand.New(rand.NewSource(seed)), n)
	for _, opt := range opts {
		opt(payload)
	}
	return payload
}

// SynthesizeText produces n bytes of HTML/JS-like text with web-typical
// delimiter density.
func SynthesizeText(rng *rand.Rand, n int) []byte {
	var b strings.Builder
	b.Grow(n + 64)
	for b.Len() < n {
		switch rng.Intn(10) {
		case 0: // tag with attribute
			fmt.Fprintf(&b, "<%s %s=\"%s-%d\">", words[rng.Intn(len(words))],
				attrs[rng.Intn(len(attrs))], words[rng.Intn(len(words))], rng.Intn(1000))
		case 1: // URL-ish
			fmt.Fprintf(&b, " /%s/%s.html?%s=%s&n=%d ", words[rng.Intn(len(words))],
				words[rng.Intn(len(words))], words[rng.Intn(len(words))],
				words[rng.Intn(len(words))], rng.Intn(100))
		case 2: // code-ish
			fmt.Fprintf(&b, "var %s=%s(%d);", words[rng.Intn(len(words))],
				words[rng.Intn(len(words))], rng.Intn(10000))
		default: // prose
			b.WriteString(words[rng.Intn(len(words))])
			if rng.Intn(12) == 0 {
				b.WriteString(". ")
			} else {
				b.WriteByte(' ')
			}
		}
	}
	return []byte(b.String())[:n]
}

// SynthesizeBinary produces n bytes of incompressible binary content.
func SynthesizeBinary(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// SiteProfile describes one synthetic site class.
type SiteProfile struct {
	// Name matches the paper's Fig. 3/4 label.
	Name string
	// TotalBytes is the whole-page payload size.
	TotalBytes int
	// TextFraction is the tokenizable share of TotalBytes.
	TextFraction float64
	// Resources is the number of fetched resources.
	Resources int
}

// Sites are the five Fig. 3/4 pages. Sizes and text fractions follow the
// paper's characterization: YouTube and AirBnB are dominated by video and
// images, CNN and NYTimes are mixed, Gutenberg is almost entirely text.
var Sites = []SiteProfile{
	{Name: "YouTube", TotalBytes: 6 << 20, TextFraction: 0.08, Resources: 30},
	{Name: "AirBnB", TotalBytes: 4 << 20, TextFraction: 0.15, Resources: 40},
	{Name: "CNN", TotalBytes: 2 << 20, TextFraction: 0.45, Resources: 60},
	{Name: "NYTimes", TotalBytes: 2500 << 10, TextFraction: 0.40, Resources: 70},
	// Project Gutenberg pages are nearly pure text and large (whole
	// books); this is the page class where BlindBox pays the most, both
	// in bandwidth (every byte is tokenized) and in CPU (Fig. 4).
	{Name: "Gutenberg", TotalBytes: 8 << 20, TextFraction: 0.97, Resources: 4},
}

// Generate builds the site's page deterministically from the seed.
func (sp SiteProfile) Generate(seed int64) *httpsim.Page {
	rng := rand.New(rand.NewSource(seed))
	page := &httpsim.Page{Name: sp.Name, Host: strings.ToLower(sp.Name) + ".example"}
	textBudget := int(float64(sp.TotalBytes) * sp.TextFraction)
	binBudget := sp.TotalBytes - textBudget

	// Resource 0 is the primary HTML document (~30% of the text budget).
	primary := textBudget * 3 / 10
	if primary < 1024 {
		primary = textBudget
	}
	page.Resources = append(page.Resources, httpsim.Resource{
		Path:        "/index.html",
		ContentType: "text/html",
		Segments:    []httpsim.Segment{{Data: SynthesizeText(rng, primary)}},
	})
	textBudget -= primary

	rest := sp.Resources - 1
	if rest < 1 {
		rest = 1
	}
	for i := 0; i < rest; i++ {
		last := i == rest-1
		if i%2 == 0 && binBudget > 0 { // binary resource
			sz := binBudget / ((rest+1)/2 - i/2)
			if last {
				sz = binBudget
			}
			if sz <= 0 {
				continue
			}
			binBudget -= sz
			page.Resources = append(page.Resources, httpsim.Resource{
				Path:        fmt.Sprintf("/media/asset%d.bin", i),
				ContentType: "image/jpeg",
				Segments:    []httpsim.Segment{{Binary: true, Data: SynthesizeBinary(rng, sz)}},
			})
		} else if textBudget > 0 { // script/style resource
			sz := textBudget / (rest - i)
			if last {
				sz = textBudget
			}
			if sz <= 0 {
				continue
			}
			textBudget -= sz
			page.Resources = append(page.Resources, httpsim.Resource{
				Path:        fmt.Sprintf("/static/app%d.js", i),
				ContentType: "application/javascript",
				Segments:    []httpsim.Segment{{Data: SynthesizeText(rng, sz)}},
			})
		}
	}
	// Flush any budget the alternation left over, so generated pages hit
	// their size and text-fraction targets.
	if textBudget > 0 {
		page.Resources = append(page.Resources, httpsim.Resource{
			Path:        "/static/tail.js",
			ContentType: "application/javascript",
			Segments:    []httpsim.Segment{{Data: SynthesizeText(rng, textBudget)}},
		})
	}
	if binBudget > 0 {
		page.Resources = append(page.Resources, httpsim.Resource{
			Path:        "/media/tail.bin",
			ContentType: "image/jpeg",
			Segments:    []httpsim.Segment{{Binary: true, Data: SynthesizeBinary(rng, binBudget)}},
		})
	}
	return page
}

// Top50 generates an Alexa-top-50-like page set for the Fig. 5/6
// bandwidth-overhead experiments: a spread of sizes (200 KB–8 MB) and text
// fractions (5%–98%), the two axes the paper identifies as driving token
// overhead.
func Top50(seed int64) []*httpsim.Page {
	rng := rand.New(rand.NewSource(seed))
	pages := make([]*httpsim.Page, 0, 50)
	for i := 0; i < 50; i++ {
		// Text fraction sweeps the range; a few video-dominated and a few
		// text-dominated outliers, most pages mixed.
		var textFrac float64
		switch {
		case i < 6:
			textFrac = 0.04 + 0.02*rng.Float64() // video sites
		case i >= 44:
			textFrac = 0.90 + 0.08*rng.Float64() // text sites
		default:
			textFrac = 0.15 + 0.55*rng.Float64()
		}
		total := 200<<10 + rng.Intn(8<<20-200<<10)
		sp := SiteProfile{
			Name:         fmt.Sprintf("site%02d", i+1),
			TotalBytes:   total,
			TextFraction: textFrac,
			Resources:    5 + rng.Intn(60),
		}
		pages = append(pages, sp.Generate(seed+int64(i)+1))
	}
	return pages
}
