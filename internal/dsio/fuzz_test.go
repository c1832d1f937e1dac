package dsio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzRead hammers the dataset decoder: it must never panic, and any
// dataset it accepts must survive a write/read round trip.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		`{"name":"x","records":[{"entity":1,"fields":[{"set":[1,2]}]}]}`,
		`{"records":[{"fields":[{"vector":[0.5,-1]}]}]}`,
		`{"records":[{"fields":[{"bits":[255],"width":8}]}]}`,
		`{"records":[{"fields":[{"set":[1],"vector":[1]}]}]}`,
		`{"records":[{"fields":[{"bits":[1],"width":999}]}]}`,
		`{"records":[{"fields":[]},{"fields":[{"set":[]}]}]}`,
		`not json`,
		`{}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			t.Fatalf("accepted dataset cannot be written: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Len() != ds.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", ds.Len(), back.Len())
		}
	})
}

// FuzzColOpen hammers the .col reader with whole files: OpenCol must
// return an error, never panic or allocate beyond what the file can
// back, and any file it accepts must survive a WriteCol/OpenCol round
// trip with its record count intact.
func FuzzColOpen(f *testing.F) {
	valid := colWithFooter(f, func(*colFooter) {})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(colMagic + colMagic))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(colWithFooter(f, func(c *colFooter) { c.Records-- }))
	f.Add(colWithFooter(f, func(c *colFooter) { c.Records = -5 }))
	f.Add(colWithFooter(f, func(c *colFooter) { c.Widths = c.Widths[:1] }))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.col")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cf, err := OpenCol(in)
		if err != nil {
			return
		}
		defer cf.Close()
		ds := cf.Dataset
		for i := range ds.Records {
			for _, fld := range ds.Records[i].Fields {
				fld.Len()
			}
		}
		out := filepath.Join(dir, "out.col")
		if err := WriteCol(out, ds); err != nil {
			return // e.g. a Bits width the writer rejects for a later record
		}
		back, err := OpenCol(out)
		if err != nil {
			t.Fatalf("re-encoded file does not open: %v", err)
		}
		defer back.Close()
		if back.Dataset.Len() != ds.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", ds.Len(), back.Dataset.Len())
		}
	})
}
