package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/color"
	"image/png"
	"math"
	"net/url"
	"strconv"
	"strings"

	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/render"
	"forestview/internal/spell"
	"forestview/internal/spellweb"
)

// scoreTol is the agreement required between a served score or p-value and
// the single-process reference.
const scoreTol = 1e-12

// checkSamples is about how many ops of the timed phase keep their bodies
// for the output checks: every k-th op, so the sample is a pure function of
// the seed.
const checkSamples = 240

func sampleEvery(nOps int) func(seq int) bool {
	k := max(1, nOps/checkSamples)
	return func(seq int) bool { return seq%k == 0 }
}

// checkOutcome verifies one sampled op's body against the reference kernels
// and returns a description of the first mismatch, or "" when it matches.
func checkOutcome(sys *system, o *outcome) string {
	q, err := url.ParseQuery(o.op.Path[strings.IndexByte(o.op.Path, '?')+1:])
	if err != nil {
		return err.Error()
	}
	switch o.op.Endpoint {
	case "search":
		return checkSearch(sys.engine, spellweb.ParseQuery(q.Get("q")), atoiOr(q.Get("top"), 0), o.body)
	case "enrich":
		return checkEnrich(sys.enricher, spellweb.ParseQuery(q.Get("genes")), o.body)
	case "heatmap":
		t, err := parseTile(q)
		if err != nil {
			return err.Error()
		}
		if t.dataset < 0 || t.dataset >= len(sys.panes) {
			return fmt.Sprintf("tile names unknown pane %d", t.dataset)
		}
		return checkTile(sys.panes[t.dataset], t, o.level, o.body)
	}
	return "unknown endpoint " + o.op.Endpoint
}

func atoiOr(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}

// checkSearch compares a served ranking with Engine.Search under the
// handler's options. Genes whose reference scores are exactly equal may
// appear in either order (the documented ID-order tie rule of the merge
// can place them differently); everything else must match position by
// position.
func checkSearch(ref *spell.Engine, ids []string, top int, body []byte) string {
	var got spell.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return "search body: " + err.Error()
	}
	want, err := ref.Search(ids, spell.Options{MaxGenes: top, IncludeQuery: true})
	if err != nil {
		return "reference search: " + err.Error()
	}
	if len(got.Genes) != len(want.Genes) {
		return fmt.Sprintf("search %v: %d genes, reference %d", ids, len(got.Genes), len(want.Genes))
	}
	for i := range want.Genes {
		g, w := got.Genes[i], want.Genes[i]
		if math.Abs(g.Score-w.Score) > scoreTol {
			return fmt.Sprintf("search %v: rank %d score %v, reference %v", ids, i, g.Score, w.Score)
		}
		if g.ID != w.ID && !tiedWith(want.Genes, i, g.ID) {
			return fmt.Sprintf("search %v: rank %d is %s, reference %s", ids, i, g.ID, w.ID)
		}
	}
	if len(got.Datasets) != len(want.Datasets) {
		return fmt.Sprintf("search %v: %d datasets, reference %d", ids, len(got.Datasets), len(want.Datasets))
	}
	for i := range want.Datasets {
		g, w := got.Datasets[i], want.Datasets[i]
		if g.Name != w.Name || math.Abs(g.Weight-w.Weight) > scoreTol {
			return fmt.Sprintf("search %v: dataset %d is %s@%v, reference %s@%v", ids, i, g.Name, g.Weight, w.Name, w.Weight)
		}
	}
	return ""
}

// tiedWith reports whether id sits in the run of exactly equal scores
// around position i of the reference ranking.
func tiedWith(ranked []spell.GeneRank, i int, id string) bool {
	for j := range ranked {
		if ranked[j].ID == id && ranked[j].Score == ranked[i].Score {
			return true
		}
	}
	return false
}

// checkEnrich compares a served enrichment table with Enricher.Analyze:
// identical term order and p-values within scoreTol.
func checkEnrich(ref *golem.Enricher, genes []string, body []byte) string {
	var got struct {
		Results []golem.Enrichment `json:"results"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return "enrich body: " + err.Error()
	}
	want, err := ref.Analyze(genes, golem.Options{MinSelected: 1})
	if err != nil {
		return "reference analyze: " + err.Error()
	}
	if len(got.Results) != len(want) {
		return fmt.Sprintf("enrich: %d terms, reference %d", len(got.Results), len(want))
	}
	for i := range want {
		g, w := got.Results[i], want[i]
		if g.TermID != w.TermID || math.Abs(g.PValue-w.PValue) > scoreTol {
			return fmt.Sprintf("enrich: term %d is %s p=%v, reference %s p=%v", i, g.TermID, g.PValue, w.TermID, w.PValue)
		}
	}
	return ""
}

// tileRequest is a parsed heatmap op without tree strips: the daemon's
// default color map and limit, auto level.
type tileRequest struct {
	dataset, from, to, w, h int
}

func parseTile(q url.Values) (tileRequest, error) {
	t := tileRequest{dataset: atoiOr(q.Get("dataset"), -1), w: atoiOr(q.Get("w"), 0), h: atoiOr(q.Get("h"), 0)}
	lo, hi, ok := strings.Cut(q.Get("rows"), ":")
	if !ok || t.w <= 0 || t.h <= 0 {
		return t, fmt.Errorf("tile path %q lacks rows, w or h", q.Encode())
	}
	t.from, t.to = atoiOr(lo, -1), atoiOr(hi, -1)
	if t.from < 0 || t.to <= t.from {
		return t, fmt.Errorf("tile rows %q", q.Get("rows"))
	}
	return t, nil
}

// autoLevel is the level the daemon must pick for a tile: the coarsest
// pyramid level that still gives every pixel row at least one slab row.
func autoLevel(span, h, levels int) int {
	lvl := 0
	for lvl+1 < levels && span>>(uint(lvl)+1) >= h {
		lvl++
	}
	return lvl
}

// tileSlab selects the rows a tile renders: the display rows at level 0,
// the level-k pyramid slab rows covering the window otherwise.
func tileSlab(cd *core.ClusteredDataset, t tileRequest, level int) [][]float64 {
	if level == 0 {
		return cd.RowsInDisplayRange(t.from, t.to)
	}
	slab := cd.Pyramid(core.PyramidOptions{}).Level(level)
	lo := t.from >> uint(level)
	hi := (t.to + 1<<uint(level) - 1) >> uint(level)
	return slab.F64[lo:hi]
}

// rasterOnly rasterizes a tile the way the daemon's defaults do.
func rasterOnly(t tileRequest, rows [][]float64) *render.Canvas {
	c := render.NewCanvas(t.w, t.h, color.RGBA{A: 255})
	render.RenderHeatmap(c, render.Rect{W: t.w, H: t.h}, rows,
		render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true})
	return c
}

// renderTile rasterizes and PNG-encodes a tile.
func renderTile(t tileRequest, rows [][]float64) ([]byte, error) {
	var buf bytes.Buffer
	err := rasterOnly(t, rows).EncodePNG(&buf)
	return buf.Bytes(), err
}

// checkTile verifies a served tile: the disclosed level equals the auto
// level computed from core.NumPyramidLevels, the PNG decodes to the
// requested size, and its bytes equal a replayed render of the same slab.
func checkTile(cd *core.ClusteredDataset, t tileRequest, levelHeader string, body []byte) string {
	n := len(cd.DisplayOrder)
	if t.to > n {
		t.to = n
	}
	want := autoLevel(t.to-t.from, t.h, core.NumPyramidLevels(n))
	if levelHeader != strconv.Itoa(want) {
		return fmt.Sprintf("tile %+v: level %q, want %d", t, levelHeader, want)
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return fmt.Sprintf("tile %+v: %v", t, err)
	}
	if b := img.Bounds(); b.Dx() != t.w || b.Dy() != t.h {
		return fmt.Sprintf("tile %+v: decoded %dx%d", t, b.Dx(), b.Dy())
	}
	ref, err := renderTile(t, tileSlab(cd, t, want))
	if err != nil {
		return "reference tile: " + err.Error()
	}
	if !bytes.Equal(ref, body) {
		return fmt.Sprintf("tile %+v: %d bytes differ from the %d-byte replay", t, len(body), len(ref))
	}
	return ""
}
