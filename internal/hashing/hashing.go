// Package hashing implements content-addressable cache naming for TaskVine
// data objects, following §3.2 of the paper.
//
// Every object stored in a worker cache carries a unique cache name assigned
// by the manager. Objects with cache lifetime "worker" must be named
// consistently across workflow executions, so their names are derived from
// content: plain files are hashed with MD5, directories are hashed
// recursively as a Merkle tree (Figure 7), remote URLs are named from strong
// HTTP metadata, and files produced on demand (MiniTask outputs, TempFiles)
// are named by hashing the producing task specification.
package hashing

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Prefixes identify the origin of a cache name so that operators can read a
// worker cache directory at a glance, mirroring the url-xxxx / temp-xxxx
// names in Figure 4 of the paper.
const (
	PrefixFile   = "file"
	PrefixDir    = "dir"
	PrefixBuffer = "buffer"
	PrefixURL    = "url"
	PrefixTemp   = "temp"
	PrefixTask   = "task"
	PrefixHandle = "handle"
	PrefixRandom = "rnd"
)

// Digest is the hex encoding of an MD5 checksum.
type Digest string

// Name composes a cache name from an origin prefix and a digest.
func Name(prefix string, d Digest) string {
	return prefix + "-" + string(d)
}

// HashBytes returns the MD5 digest of a byte slice. It is used for
// BufferFiles, whose content is available in the manager's memory when the
// buffer is attached to a task.
func HashBytes(b []byte) Digest {
	if len(b) <= hashChunk {
		sum := md5.Sum(b)
		return Digest(hex.EncodeToString(sum[:]))
	}
	h := md5.New()
	for len(b) > 0 {
		n := min(len(b), hashChunk)
		h.Write(b[:n])
		b = b[n:]
	}
	return Digest(hex.EncodeToString(h.Sum(nil)))
}

// hashChunk bounds the bytes one MD5 call digests. The digest loop is
// assembly, which the runtime cannot preempt, and the garbage collector
// waits for a goroutine it cannot preempt while the rest of the process
// waits for the collector: one call over tens of megabytes stalls every
// goroutine for its whole duration.
const hashChunk = 64 << 10

// HashString returns the MD5 digest of a string.
func HashString(s string) Digest {
	return HashBytes([]byte(s))
}

// HashReader returns the MD5 digest of everything readable from r.
func HashReader(r io.Reader) (Digest, error) {
	h := md5.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return Digest(hex.EncodeToString(h.Sum(nil))), nil
}

// HashFile returns the MD5 digest of the contents of a plain file.
func HashFile(path string) (Digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return HashReader(f)
}

// DirEntry is one row of the "small document" a directory is reduced to
// before hashing: the entry's name, its type, and the digest of its content
// (recursively computed for subdirectories).
type DirEntry struct {
	Name   string
	IsDir  bool
	Mode   os.FileMode
	Size   int64
	Digest Digest
}

// HashDirEntries hashes the document formed by a directory's entries. The
// entries are serialized deterministically (sorted by name) so that the same
// tree always produces the same name regardless of filesystem iteration
// order.
func HashDirEntries(entries []DirEntry) Digest {
	sorted := make([]DirEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var doc strings.Builder
	for _, e := range sorted {
		kind := "f"
		if e.IsDir {
			kind = "d"
		}
		fmt.Fprintf(&doc, "%s %s %o %d %s\n", kind, e.Name, e.Mode.Perm(), e.Size, e.Digest)
	}
	return HashString(doc.String())
}

// HashTree recursively hashes a file or directory rooted at path, producing
// the Merkle-tree cache digest of Figure 7. Each plain file is hashed with
// MD5; each directory is reduced to a sorted document of its entries' names,
// metadata, and digests, and that document is hashed to name the directory.
func HashTree(path string) (Digest, error) {
	info, err := os.Lstat(path)
	if err != nil {
		return "", err
	}
	if !info.IsDir() {
		return HashFile(path)
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return "", err
	}
	entries := make([]DirEntry, 0, len(ents))
	for _, ent := range ents {
		sub := filepath.Join(path, ent.Name())
		d, err := HashTree(sub)
		if err != nil {
			return "", err
		}
		fi, err := ent.Info()
		if err != nil {
			return "", err
		}
		size := fi.Size()
		if ent.IsDir() {
			size = 0
		}
		entries = append(entries, DirEntry{
			Name:   ent.Name(),
			IsDir:  ent.IsDir(),
			Mode:   fi.Mode(),
			Size:   size,
			Digest: d,
		})
	}
	return HashDirEntries(entries), nil
}

// URLMetadata carries the HTTP header fields the manager can retrieve
// cheaply (a HEAD request) to name a remote object without downloading it.
type URLMetadata struct {
	// ContentMD5 or ContentSHA1 hold a server-provided checksum, if any.
	// When present this is the ideal, truly content-derived name.
	ContentMD5  string
	ContentSHA1 string
	// ETag and LastModified are guaranteed to change when the content
	// changes, so hashing them together with the URL yields a name that
	// can never serve stale data even though it is not content-derived.
	ETag         string
	LastModified string
}

// HasStrongChecksum reports whether the metadata includes a server-side
// content checksum usable directly as a cache name.
func (m URLMetadata) HasStrongChecksum() bool {
	return m.ContentMD5 != "" || m.ContentSHA1 != ""
}

// HasValidators reports whether the metadata carries cache validators
// (ETag or Last-Modified) sufficient to build a stable derived name.
func (m URLMetadata) HasValidators() bool {
	return m.ETag != "" || m.LastModified != ""
}

// HashURL derives a cache digest for a remote URL from its metadata,
// implementing the naming ladder of §3.2:
//
//  1. a server-provided checksum is used directly;
//  2. otherwise the URL is combined with the ETag and Last-Modified
//     validators and hashed;
//  3. if neither is available, ok is false and the caller must download the
//     content and name it with HashReader.
func HashURL(url string, m URLMetadata) (Digest, bool) {
	switch {
	case m.ContentMD5 != "":
		return HashString("md5:" + m.ContentMD5), true
	case m.ContentSHA1 != "":
		return HashString("sha1:" + m.ContentSHA1), true
	case m.HasValidators():
		return HashString("url:" + url + "\netag:" + m.ETag + "\nmod:" + m.LastModified), true
	default:
		return "", false
	}
}

// TaskDocument is the canonical serialization of a task specification used
// to name its products. TempFiles and MiniTask outputs cannot be named by
// content (it does not exist yet), so they are named by the Merkle tree of
// the producing task: command, resources, environment, and the cache names
// of its inputs, computed recursively (§3.2).
type TaskDocument struct {
	Command   string
	Resources string
	Env       []string    // sorted KEY=VALUE pairs
	Inputs    [][2]string // (cache name, mount name), sorted by mount name
	Output    string      // which declared output this name refers to
}

// HashTaskDocument hashes the canonical task document.
func HashTaskDocument(doc TaskDocument) Digest {
	var b strings.Builder
	fmt.Fprintf(&b, "cmd:%s\nres:%s\n", doc.Command, doc.Resources)
	env := make([]string, len(doc.Env))
	copy(env, doc.Env)
	sort.Strings(env)
	for _, e := range env {
		fmt.Fprintf(&b, "env:%s\n", e)
	}
	inputs := make([][2]string, len(doc.Inputs))
	copy(inputs, doc.Inputs)
	sort.Slice(inputs, func(i, j int) bool { return inputs[i][1] < inputs[j][1] })
	for _, in := range inputs {
		fmt.Fprintf(&b, "in:%s=%s\n", in[1], in[0])
	}
	fmt.Fprintf(&b, "out:%s\n", doc.Output)
	return HashString(b.String())
}
