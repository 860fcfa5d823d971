// Package format implements the Formatter layer of Table 1: loading and
// unifying heterogeneous inputs — JSONL, JSON, txt, csv/tsv, markdown,
// HTML, source code files, gzip-compressed variants of any of those,
// directories and globs, the "hub:" scheme resolving to the built-in
// synthetic corpora, and "mix:" weighted multi-source mixtures — into the
// unified sample representation, plus dataset export. All loading flows
// through the incremental Source interface (source.go), so the streaming
// backend reads the same specs with bounded memory; Load is simply a
// Source drained into a batch dataset.
//
// See docs/recipes.md for the complete input-spec reference.
package format

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/sample"
)

// codeSuffixes are loaded as code documents with meta.suffix set.
var codeSuffixes = map[string]bool{
	".py": true, ".go": true, ".js": true, ".java": true, ".cpp": true,
	".c": true, ".h": true, ".rs": true, ".rb": true, ".ts": true,
}

// Load resolves a dataset spec (every form OpenSource accepts — file,
// directory, glob, "hub:", "mix:") into a fully resident batch dataset.
func Load(spec string) (*dataset.Dataset, error) {
	src, err := OpenSource(spec)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return Drain(src)
}

func supported(ext string) bool {
	switch ext {
	case ".jsonl", ".json", ".txt", ".md", ".csv", ".tsv", ".html", ".htm":
		return true
	}
	return codeSuffixes[ext]
}

// SampleFromJSON unifies one JSON object into a sample: "text"/"content"
// becomes the payload (with nested part support), "meta"/"stats" map to
// their fields, and foreign top-level fields fold into meta. It is the
// shared decode path of every JSON-carrying Source, so both backends see
// identical samples for the same input line. Clean flat objects decode
// through the hand-rolled fast path; everything else (and every error)
// goes through the reflective map fold below.
func SampleFromJSON(raw []byte) (*sample.Sample, error) {
	s := &sample.Sample{}
	if err := sampleFromJSONInto(raw, s); err != nil {
		return nil, err
	}
	return s, nil
}

// sampleFromJSONInto decodes into an existing (arena-allocated) sample.
func sampleFromJSONInto(raw []byte, s *sample.Sample) error {
	if sample.DecodeLooseJSON(raw, s) {
		return nil
	}
	return sampleFromJSONSlow(raw, s)
}

func sampleFromJSONSlow(raw []byte, s *sample.Sample) error {
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		return err
	}
	*s = sample.Sample{}
	for key, v := range obj {
		switch key {
		case "text", "content":
			switch tv := v.(type) {
			case string:
				s.Text = tv
			case map[string]any:
				// Nested text parts: {"text": {"body": ..., "abstract": ...}}
				for part, pv := range tv {
					str, _ := pv.(string)
					if part == "body" || part == "main" {
						s.Text = str
						continue
					}
					if s.Parts == nil {
						s.Parts = map[string]string{}
					}
					s.Parts[part] = str
				}
			}
		case "parts":
			if m, ok := v.(map[string]any); ok {
				for part, pv := range m {
					if str, ok := pv.(string); ok {
						if s.Parts == nil {
							s.Parts = map[string]string{}
						}
						s.Parts[part] = str
					}
				}
			}
		case "meta":
			if m, ok := v.(map[string]any); ok {
				for k, mv := range m {
					s.Meta = s.Meta.Set(k, mv)
				}
			}
		case "stats":
			if m, ok := v.(map[string]any); ok {
				for k, sv := range m {
					s.Stats.Set(k, sv)
				}
			}
		default:
			// Foreign fields become metadata.
			s.Meta = s.Meta.Set(key, v)
		}
	}
	return nil
}

// Export writes the dataset to path according to its extension:
//
//   - .jsonl — native and lossless: text, parts, meta and stats all
//     round-trip through Load
//   - .json — a JSON array of full samples; lossless like .jsonl (an
//     empty dataset exports as [], not null)
//   - .txt — LOSSY: primary text only, blank-line separated; parts,
//     meta and stats are dropped by construction. Use .jsonl/.json when
//     provenance tags or statistics must survive.
func Export(d *dataset.Dataset, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".jsonl":
		return d.SaveJSONL(path)
	case ".json":
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		samples := d.Samples
		if samples == nil {
			// A nil slice encodes as null; export [] so the file reads as
			// an explicitly empty array rather than a degenerate document.
			samples = []*sample.Sample{}
		}
		return enc.Encode(samples)
	case ".txt":
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		for i, s := range d.Samples {
			if i > 0 {
				if _, err := f.WriteString("\n\n"); err != nil {
					return err
				}
			}
			if _, err := f.WriteString(s.Text); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("format: unsupported export type for %q (want .jsonl, .json, or .txt — note .txt drops parts/meta/stats)", path)
}
