// Package files implements the data abstraction of TaskVine (§2.3): every
// named data object in a workflow is a File, whether a single file, a large
// container image, or a directory hierarchy.
//
// A File is immutable once created, which permits replication to workers
// without consistency checks. The manager assigns each file a unique cache
// name whose scope matches the file's declared lifetime: task- and
// workflow-lifetime files receive random names that never escape the
// workflow, while worker-lifetime files receive content-addressable names
// that are stable across workflows and managers (§3.2).
package files

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"sync"

	"taskvine/internal/hashing"
	"taskvine/internal/taskspec"
)

// Type identifies the subtype of a file (§2.3).
type Type int

const (
	// Local names a file or directory in the manager's filesystem.
	Local Type = iota
	// Buffer is a (typically small) unit of literal data in the
	// application's memory space.
	Buffer
	// URL references a remote data object the worker downloads on demand.
	URL
	// Temp is an ephemeral file that exists only within the cluster and is
	// never materialized outside it.
	Temp
	// Mini is a file produced on demand at a worker by executing a
	// MiniTask specification.
	Mini
	// Handle is a pass-by-reference object: the worker-resident result of
	// a resident function invocation (§3.4). Like Temp it exists only
	// within the cluster, but it is expected to live in a worker's memory
	// tier and is consumed by downstream tasks without the manager ever
	// materializing the bytes.
	Handle
)

// String returns a readable name for the type.
func (t Type) String() string {
	switch t {
	case Local:
		return "local"
	case Buffer:
		return "buffer"
	case URL:
		return "url"
	case Temp:
		return "temp"
	case Mini:
		return "minitask"
	case Handle:
		return "handle"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Lifetime is the cache hint the application offers the manager about how
// long a file remains useful (§2.3).
type Lifetime int

const (
	// LifetimeTask files are discarded as soon as the consuming task
	// completes.
	LifetimeTask Lifetime = iota
	// LifetimeWorkflow files (the default) may be reused during the
	// current workflow run and are deleted at its conclusion.
	LifetimeWorkflow
	// LifetimeWorker files are retained by workers across workflows, as
	// long as resources allow; typically software packages and reference
	// datasets.
	LifetimeWorker
)

// String returns a readable name for the lifetime.
func (l Lifetime) String() string {
	switch l {
	case LifetimeTask:
		return "task"
	case LifetimeWorkflow:
		return "workflow"
	case LifetimeWorker:
		return "worker"
	default:
		return fmt.Sprintf("lifetime(%d)", int(l))
	}
}

// File is a declared data object. Files are created through a Registry and
// are immutable afterwards: the manager replicates them freely among workers.
type File struct {
	// ID is the unique cache name under which the object is stored on
	// every worker that holds a replica.
	ID string
	// Type is the file subtype.
	Type Type
	// Source is the local path (Local), or remote URL (URL).
	Source string
	// Content holds the literal bytes of a Buffer file.
	Content []byte
	// Size is the object's size in bytes, or -1 when not yet known (URL
	// without Content-Length, products of tasks not yet run).
	Size int64
	// Lifetime is the declared cache lifetime.
	Lifetime Lifetime
	// MiniTask is the producing specification for Mini files.
	MiniTask *taskspec.Spec
}

// IsRemote reports whether the object must be fetched or produced at the
// worker rather than shipped from the manager (URL, Temp, Mini). For such
// files, declaring them does not mean they exist yet at any worker; the
// worker sends an asynchronous cache-update when it acquires them (§2.3).
func (f *File) IsRemote() bool {
	return f.Type == URL || f.Type == Temp || f.Type == Mini || f.Type == Handle
}

// HeadFunc retrieves the naming metadata of a remote URL, typically via an
// HTTP HEAD request. It is injected so the registry never touches the
// network directly.
type HeadFunc func(url string) (hashing.URLMetadata, int64, error)

// Registry is the manager's catalogue of declared files. It assigns cache
// names, tracks reference counts for garbage collection, and remembers
// which task produces each on-demand file.
type Registry struct {
	mu    sync.Mutex
	files map[string]*File // guarded by mu
	// refs counts submitted-but-unfinished tasks consuming each file.
	refs map[string]int // guarded by mu
	// producers maps an on-demand file ID to the ID of the submitted task
	// that outputs it, for recovery after worker loss.
	producers map[string]int // guarded by mu
	head      HeadFunc
	randNames map[string]bool // guarded by mu
}

// NewRegistry returns an empty registry. head may be nil if no URL files
// will be declared with worker lifetime.
func NewRegistry(head HeadFunc) *Registry {
	return &Registry{
		files:     make(map[string]*File),
		refs:      make(map[string]int),
		producers: make(map[string]int),
		head:      head,
		randNames: make(map[string]bool),
	}
}

// randomNameLocked generates a workflow-private random name with the given prefix
// and guarantees it cannot collide with another name issued by this
// registry (§3.2: random names never escape a single workflow run, so
// collision avoidance within the run suffices).
func (r *Registry) randomNameLocked(prefix string) string {
	for {
		var b [12]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic("files: crypto/rand unavailable: " + err.Error())
		}
		name := prefix + "-rnd-" + hex.EncodeToString(b[:])
		if !r.randNames[name] && r.files[name] == nil {
			r.randNames[name] = true
			return name
		}
	}
}

func (r *Registry) insertLocked(f *File) (*File, error) {
	if existing, ok := r.files[f.ID]; ok {
		// Content-addressed redeclaration of the same object is idempotent.
		if existing.Type == f.Type && existing.Lifetime == f.Lifetime {
			return existing, nil
		}
		return nil, fmt.Errorf("files: cache name collision on %s (%s vs %s)",
			f.ID, existing.Type, f.Type)
	}
	r.files[f.ID] = f
	return f, nil
}

// DeclareLocal declares a file or directory in the shared filesystem as a
// workflow input. Worker-lifetime objects are named by hashing content (a
// Merkle tree for directories); others get random names.
func (r *Registry) DeclareLocal(path string, lifetime Lifetime) (*File, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("files: declaring local %s: %w", path, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var id string
	if lifetime == LifetimeWorker {
		d, err := hashing.HashTree(path)
		if err != nil {
			return nil, fmt.Errorf("files: hashing %s: %w", path, err)
		}
		prefix := hashing.PrefixFile
		if info.IsDir() {
			prefix = hashing.PrefixDir
		}
		id = hashing.Name(prefix, d)
	} else {
		id = r.randomNameLocked(hashing.PrefixFile)
	}
	size := info.Size()
	if info.IsDir() {
		size = treeSize(path)
	}
	return r.insertLocked(&File{ID: id, Type: Local, Source: path, Size: size, Lifetime: lifetime})
}

func treeSize(path string) int64 {
	var total int64
	ents, err := os.ReadDir(path)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if e.IsDir() {
			total += treeSize(path + "/" + e.Name())
		} else if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// DeclareBuffer declares literal bytes from the application's memory as a
// file. The cache name of a worker-lifetime buffer is the hash of its
// contents. The copy and the hash are made before taking the registry lock,
// which the manager's event loop also takes.
func (r *Registry) DeclareBuffer(content []byte, lifetime Lifetime) (*File, error) {
	c := make([]byte, len(content))
	// One copy call cannot be preempted, and the garbage collector, with
	// every goroutine behind it, would wait for it; copy in pieces instead.
	for off := 0; off < len(c); off += copyChunk {
		copy(c[off:], content[off:min(off+copyChunk, len(c))])
	}
	var id string
	if lifetime == LifetimeWorker {
		id = hashing.Name(hashing.PrefixBuffer, hashing.HashBytes(c))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		id = r.randomNameLocked(hashing.PrefixBuffer)
	}
	return r.insertLocked(&File{ID: id, Type: Buffer, Content: c, Size: int64(len(c)), Lifetime: lifetime})
}

// copyChunk is the largest piece DeclareBuffer copies in one call.
const copyChunk = 256 << 10

// DeclareURL declares a remote object to be downloaded by workers on
// demand. For worker lifetime the manager retrieves the HTTP header and
// derives a strong cache name from it without downloading the body; if the
// header carries neither a checksum nor validators, the metadata fetcher is
// expected to have downloaded and hashed the content (the "unlikely event"
// fallback of §3.2), which it signals by returning a ContentMD5.
func (r *Registry) DeclareURL(url string, lifetime Lifetime) (*File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var id string
	size := int64(-1)
	if lifetime == LifetimeWorker {
		if r.head == nil {
			return nil, fmt.Errorf("files: worker-lifetime URL %s requires a metadata fetcher", url)
		}
		meta, n, err := r.head(url)
		if err != nil {
			return nil, fmt.Errorf("files: fetching metadata for %s: %w", url, err)
		}
		size = n
		d, ok := hashing.HashURL(url, meta)
		if !ok {
			return nil, fmt.Errorf("files: %s has no checksum or validators; fetcher must fall back to content hashing", url)
		}
		id = hashing.Name(hashing.PrefixURL, d)
	} else {
		if r.head != nil {
			if _, n, err := r.head(url); err == nil {
				size = n
			}
		}
		id = r.randomNameLocked(hashing.PrefixURL)
	}
	return r.insertLocked(&File{ID: id, Type: URL, Source: url, Size: size, Lifetime: lifetime})
}

// DeclareTemp declares an ephemeral intra-cluster file, the output of a
// task, never materialized outside the cluster. Temp files are workflow
// scoped by definition, so a workflow-private random name is sufficient.
func (r *Registry) DeclareTemp() *File {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &File{ID: r.randomNameLocked(hashing.PrefixTemp), Type: Temp, Size: -1, Lifetime: LifetimeWorkflow}
	r.files[f.ID] = f
	return f
}

// DeclareHandle declares a pass-by-reference object: the worker-resident
// result of a resident function invocation. Like a Temp it is workflow
// scoped and intra-cluster, so a workflow-private random name suffices;
// the size becomes known when the producing invocation completes.
func (r *Registry) DeclareHandle() *File {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &File{ID: r.randomNameLocked(hashing.PrefixHandle), Type: Handle, Size: -1, Lifetime: LifetimeWorkflow}
	r.files[f.ID] = f
	return f
}

// DeclareMiniTask declares a file produced on demand by executing the given
// task specification at a worker (§3.1). The file is named by the Merkle
// hash of the specification, so identical MiniTasks across workflows share
// one cached product. The spec must declare exactly one output whose mount
// name is "output"; its FileID is filled in by this call.
func (r *Registry) DeclareMiniTask(spec *taskspec.Spec, lifetime Lifetime) (*File, error) {
	spec = spec.Clone()
	if len(spec.Outputs) == 0 {
		spec.Outputs = []taskspec.Mount{{Name: "output"}}
	}
	if len(spec.Outputs) != 1 {
		return nil, fmt.Errorf("files: MiniTask must have exactly one output")
	}
	out := spec.Outputs[0].Name
	id := spec.ProductName(out)
	spec.Outputs[0].FileID = id
	if spec.Kind != taskspec.KindMini {
		spec.Kind = taskspec.KindMini
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("files: invalid MiniTask: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.insertLocked(&File{ID: id, Type: Mini, Size: -1, Lifetime: lifetime, MiniTask: spec})
}

// Lookup returns the declared file with the given cache name.
func (r *Registry) Lookup(id string) (*File, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.files[id]
	return f, ok
}

// SetSize records the now-known size of an on-demand object, first reported
// by a worker cache-update message.
func (r *Registry) SetSize(id string, size int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.files[id]; ok && f.Size < 0 {
		f.Size = size
	}
}

// Retain increments the reference count of each listed file on behalf of a
// submitted task.
func (r *Registry) Retain(ids []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		r.refs[id]++
	}
}

// Release decrements reference counts and returns the IDs of task-lifetime
// files that became garbage: unreferenced task-lifetime objects can be
// deleted from workers immediately (§2.3).
func (r *Registry) Release(ids []string) (garbage []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if r.refs[id] > 0 {
			r.refs[id]--
		}
		if r.refs[id] == 0 {
			if f, ok := r.files[id]; ok && f.Lifetime == LifetimeTask {
				garbage = append(garbage, id)
			}
		}
	}
	return garbage
}

// Refs returns the current reference count of a file.
func (r *Registry) Refs(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refs[id]
}

// SetProducer records that submitted task taskID outputs the given file,
// enabling recovery by re-execution when a worker holding the only replica
// is lost.
func (r *Registry) SetProducer(fileID string, taskID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.producers[fileID] = taskID
}

// Producer returns the task that produces fileID, if known.
func (r *Registry) Producer(fileID string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.producers[fileID]
	return t, ok
}

// WorkflowGarbage returns the IDs of all files that must be deleted from
// workers at the conclusion of a workflow: everything except worker-lifetime
// objects (§3.2).
func (r *Registry) WorkflowGarbage() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []string
	for id, f := range r.files {
		if f.Lifetime != LifetimeWorker {
			ids = append(ids, id)
		}
	}
	return ids
}

// All returns every declared file.
func (r *Registry) All() []*File {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*File, 0, len(r.files))
	for _, f := range r.files {
		out = append(out, f)
	}
	return out
}
