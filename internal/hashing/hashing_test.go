package hashing

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestHashBytesDeterministic(t *testing.T) {
	a := HashBytes([]byte("hello"))
	b := HashBytes([]byte("hello"))
	if a != b {
		t.Fatalf("same content hashed differently: %s vs %s", a, b)
	}
	c := HashBytes([]byte("world"))
	if a == c {
		t.Fatalf("different content collided: %s", a)
	}
}

func TestHashBytesKnownVector(t *testing.T) {
	// md5("") is the well-known d41d8c... constant.
	if got := HashBytes(nil); got != "d41d8cd98f00b204e9800998ecf8427e" {
		t.Fatalf("md5 of empty input = %s", got)
	}
}

func TestHashReaderMatchesHashBytes(t *testing.T) {
	data := []byte("some longer content with\nnewlines and \x00 bytes")
	d, err := HashReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if d != HashBytes(data) {
		t.Fatalf("HashReader disagrees with HashBytes")
	}
	// Larger than one hash chunk, and not a multiple of it.
	big := bytes.Repeat(data, 3*hashChunk/len(data))
	if d, _ := HashReader(bytes.NewReader(big)); d != HashBytes(big) {
		t.Fatalf("HashReader disagrees with HashBytes over %d bytes", len(big))
	}
}

func TestHashFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.txt")
	if err := os.WriteFile(path, []byte("file content"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d != HashBytes([]byte("file content")) {
		t.Fatalf("file digest mismatch")
	}
}

func TestHashFileMissing(t *testing.T) {
	if _, err := HashFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHashTreeDeterministic(t *testing.T) {
	files := map[string]string{
		"a.txt":        "alpha",
		"sub/b.txt":    "beta",
		"sub/deep/c":   "gamma",
		"sub/deep/d":   "delta",
		"another/e.go": "package e",
	}
	d1dir := t.TempDir()
	d2dir := t.TempDir()
	writeTree(t, d1dir, files)
	writeTree(t, d2dir, files)
	d1, err := HashTree(d1dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := HashTree(d2dir)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("identical trees named differently: %s vs %s", d1, d2)
	}
}

func TestHashTreeSensitivity(t *testing.T) {
	base := map[string]string{"a.txt": "alpha", "sub/b.txt": "beta"}

	root := t.TempDir()
	writeTree(t, root, base)
	orig, err := HashTree(root)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		files map[string]string
	}{
		{"changed content", map[string]string{"a.txt": "ALPHA", "sub/b.txt": "beta"}},
		{"renamed file", map[string]string{"a2.txt": "alpha", "sub/b.txt": "beta"}},
		{"extra file", map[string]string{"a.txt": "alpha", "sub/b.txt": "beta", "c": ""}},
		{"moved file", map[string]string{"a.txt": "alpha", "b.txt": "beta"}},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		writeTree(t, dir, tc.files)
		d, err := HashTree(dir)
		if err != nil {
			t.Fatal(err)
		}
		if d == orig {
			t.Errorf("%s: tree change did not change digest", tc.name)
		}
	}
}

func TestHashTreePlainFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := HashTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if d != HashBytes([]byte("x")) {
		t.Fatal("HashTree of a plain file should equal its content hash")
	}
}

func TestHashDirEntriesOrderIndependent(t *testing.T) {
	e1 := []DirEntry{
		{Name: "a", Size: 1, Digest: "d1"},
		{Name: "b", Size: 2, Digest: "d2"},
		{Name: "c", IsDir: true, Digest: "d3"},
	}
	e2 := []DirEntry{e1[2], e1[0], e1[1]}
	if HashDirEntries(e1) != HashDirEntries(e2) {
		t.Fatal("directory hash depends on entry order")
	}
}

func TestHashURLLadder(t *testing.T) {
	// Rung 1: server checksum wins over everything else.
	d1, ok := HashURL("http://a/x", URLMetadata{ContentMD5: "abc", ETag: "e1"})
	if !ok {
		t.Fatal("checksum metadata should produce a name")
	}
	d1b, _ := HashURL("http://b/y", URLMetadata{ContentMD5: "abc", ETag: "e2"})
	if d1 != d1b {
		t.Fatal("same checksum on different URLs should name the same content")
	}

	// Rung 2: validators produce a stable name tied to the URL.
	d2, ok := HashURL("http://a/x", URLMetadata{ETag: "e1", LastModified: "t1"})
	if !ok {
		t.Fatal("validators should produce a name")
	}
	d2same, _ := HashURL("http://a/x", URLMetadata{ETag: "e1", LastModified: "t1"})
	if d2 != d2same {
		t.Fatal("validator naming not deterministic")
	}
	d2etag, _ := HashURL("http://a/x", URLMetadata{ETag: "e2", LastModified: "t1"})
	if d2 == d2etag {
		t.Fatal("ETag change must change the name (stale data hazard)")
	}
	d2url, _ := HashURL("http://a/z", URLMetadata{ETag: "e1", LastModified: "t1"})
	if d2 == d2url {
		t.Fatal("different URLs with same validators must not collide")
	}

	// Rung 3: nothing available, caller must download.
	if _, ok := HashURL("http://a/x", URLMetadata{}); ok {
		t.Fatal("bare URL must not be nameable without metadata")
	}
}

func TestHashTaskDocument(t *testing.T) {
	doc := TaskDocument{
		Command:   "blast -db landmark",
		Resources: "cores=4",
		Env:       []string{"B=2", "A=1"},
		Inputs:    [][2]string{{"file-abc", "blast"}, {"url-def", "landmark"}},
		Output:    "out.txt",
	}
	d1 := HashTaskDocument(doc)

	// Env and input order must not matter.
	doc2 := doc
	doc2.Env = []string{"A=1", "B=2"}
	doc2.Inputs = [][2]string{{"url-def", "landmark"}, {"file-abc", "blast"}}
	if HashTaskDocument(doc2) != d1 {
		t.Fatal("task document hash depends on field order")
	}

	// Any substantive change must change the name.
	mut := []TaskDocument{}
	m := doc
	m.Command = "blast -db other"
	mut = append(mut, m)
	m = doc
	m.Resources = "cores=8"
	mut = append(mut, m)
	m = doc
	m.Inputs = [][2]string{{"file-zzz", "blast"}, {"url-def", "landmark"}}
	mut = append(mut, m)
	m = doc
	m.Output = "other.txt"
	mut = append(mut, m)
	for i, md := range mut {
		if HashTaskDocument(md) == d1 {
			t.Errorf("mutation %d did not change task hash", i)
		}
	}
}

func TestName(t *testing.T) {
	if got := Name(PrefixURL, "abc"); got != "url-abc" {
		t.Fatalf("Name = %q", got)
	}
}

// Property: HashBytes is a function (deterministic) and rarely collides on
// random inputs.
func TestQuickHashBytesProperties(t *testing.T) {
	deterministic := func(b []byte) bool {
		return HashBytes(b) == HashBytes(b)
	}
	if err := quick.Check(deterministic, nil); err != nil {
		t.Error(err)
	}
	distinct := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return HashBytes(a) != HashBytes(b)
	}
	if err := quick.Check(distinct, nil); err != nil {
		t.Error(err)
	}
}

// Property: directory hashing is invariant under permutation of entries.
func TestQuickDirEntriesPermutation(t *testing.T) {
	f := func(names []string, swap uint8) bool {
		seen := map[string]bool{}
		entries := []DirEntry{}
		for _, n := range names {
			n = strings.Map(func(r rune) rune {
				if r == '\n' || r == ' ' {
					return '_'
				}
				return r
			}, n)
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			entries = append(entries, DirEntry{Name: n, Digest: HashString(n)})
		}
		if len(entries) < 2 {
			return true
		}
		h1 := HashDirEntries(entries)
		i := int(swap) % len(entries)
		j := (i + 1) % len(entries)
		entries[i], entries[j] = entries[j], entries[i]
		return HashDirEntries(entries) == h1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
