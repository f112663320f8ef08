// Package core implements the TaskVine manager (§2.2): the process that
// directs overall workflow execution by accepting declared files and tasks,
// dispatching tasks to workers, directing file transfers between workers
// and data sources, collecting results, and performing garbage collection.
//
// As a general rule the manager makes all policy decisions while workers
// provide mechanism. The manager's picture of distributed state — the File
// Replica Table and Current Transfer Table of §3.3 — is kept current by
// asynchronous cache-update and completion messages from workers, and is
// consulted by the shared scheduling policy (internal/policy) to place
// tasks near their data and to supervise transfers without creating
// hotspots.
//
// Concurrency model: one event loop goroutine owns all mutable scheduling
// state. Per-worker reader goroutines and API calls communicate with it
// exclusively through the events channel, so the scheduler needs no locks
// and every decision observes a consistent snapshot.
package core

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/protocol"
	"taskvine/internal/replica"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// Config parameterizes a Manager.
type Config struct {
	// ListenAddr is the address workers connect to; default "127.0.0.1:0".
	ListenAddr string
	// Limits bounds concurrent transfers per source (§3.3).
	Limits policy.Limits
	// Head fetches URL naming metadata; required only when worker-lifetime
	// URL files are declared.
	Head files.HeadFunc
	// Files, when non-nil, is the file registry this manager reads
	// declarations from instead of allocating a private one. A sharded
	// control plane (internal/shard) passes one registry to all shards so
	// a file declared once is resolvable on whichever shard its tasks
	// land; the registry is internally synchronized.
	Files *files.Registry
	// DefaultTaskResources fills unspecified task resource requests;
	// defaults to one core.
	DefaultTaskResources resources.R
	// Trace receives execution events; nil allocates a private log.
	Trace *trace.Log
	// Metrics is the instrument registry the manager binds the shared
	// TaskVine instrument set to; nil allocates a private registry. Pass one
	// registry to an in-process manager, its workers, and a batch pool to
	// aggregate them on a single /metrics surface.
	Metrics *metrics.Registry
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
	// TickInterval is the scheduler's housekeeping period; defaults to
	// 200ms.
	TickInterval time.Duration
	// HeartbeatInterval is how often the manager pings workers; defaults
	// to 15s. HeartbeatTimeout drops workers silent for that long
	// (default 60s; zero disables liveness checking).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// TraceFile, when set, receives the full execution event log as CSV
	// when the manager closes — the workflow's transaction log.
	TraceFile string
	// AutoSizeResources fills a submitted task's unspecified disk and
	// memory requests from its category's observed history (twice the
	// largest measured consumption), so declarations converge without
	// user tuning — the data-driven side of §2.1's allocation management.
	AutoSizeResources bool
	// TransferRetryLimit bounds how many times one (file, destination)
	// transfer is re-issued with backoff before the placement is abandoned
	// and its tasks rescheduled elsewhere; defaults to 4. Transfer retries
	// are accounted separately from task retries.
	TransferRetryLimit int
	// TransferBackoffBase and TransferBackoffMax bound the capped
	// exponential backoff between transfer retries; default 100ms and 5s.
	TransferBackoffBase time.Duration
	TransferBackoffMax  time.Duration
	// Faults is a test-only fault injector consulted by the transfer
	// supervisor; nil (the default) disables injection.
	Faults *chaos.Injector
	// DisableBinaryProto keeps all connections on line-delimited JSON even
	// when a worker advertises binary framing — for netcat debugging and
	// cross-version tests. Default false: binary is negotiated when offered.
	DisableBinaryProto bool
	// Placement configures workflow-aware lookahead placement: prefetching
	// queued tasks' inputs toward their likely workers and replicating
	// high-fan-out files ahead of their consumers. Disabled by default.
	Placement policy.PlacementSpec
}

// Result is the outcome of one task delivered to the application.
type Result struct {
	TaskID   int
	Worker   string
	OK       bool
	ExitCode int
	Error    string
	// Output holds the task's inline result: bounded stdout/stderr for
	// command tasks, the serialized return value for function calls.
	Output []byte
	// Outputs lists the cache names and sizes of produced file objects.
	Outputs []protocol.OutputInfo
	// StagedMS and RunMS split worker-side latency into data staging and
	// execution.
	StagedMS, RunMS int64
	// MeasuredDisk and MeasuredMemory report the task's observed
	// consumption in bytes (zero when unmeasured).
	MeasuredDisk, MeasuredMemory int64
}

// Manager coordinates workers to execute a workflow.
type Manager struct {
	cfg    Config
	ln     net.Listener
	reg    *files.Registry
	events chan event
	// results delivers completed tasks to Wait callers.
	results chan *Result
	tlog    *trace.Log
	vm      *metrics.VineMetrics
	start   time.Time

	// Event-loop-owned state; never touched outside the loop goroutine.
	workers map[string]*workerConn
	joinSeq int
	tasks   map[int]*taskState
	waiting []int
	reps    *replica.Table
	trs     *replica.Transfers
	libs    map[string]*librarySpec
	fetches map[string][]chan fetchResult // cache name -> waiters
	// replicaGoals maps file ID -> desired replica count, reconciled on
	// every scheduling pass (§2.2: "duplicating items for reliability").
	replicaGoals map[string]int
	// transferRetry tracks per-placement transfer failures and backoff
	// windows, separate from task retry accounting.
	transferRetry map[transferKey]*transferRetryState
	// categories aggregates observed task behaviour per category label.
	categories map[string]*CategoryStats
	nextID     int
	pendingWk  int // tasks not yet finished (for Empty)

	// Incremental-scheduling state (event-loop-owned). The scheduler's cost
	// is proportional to what changed, not to everything ever submitted:
	// events mark the work they may have unblocked, and schedule() visits
	// only that work (ticks force a full pass as a safety net).
	//
	// staging holds the tasks currently placing data, so a pass never walks
	// the full task map. archived holds terminal producers (tasks that
	// registered outputs) whose results were delivered; they leave the hot
	// map but stay reachable through taskByID for recovery re-execution.
	// Terminal tasks without outputs are not kept at all. fileWaiters maps
	// a file ID to the waiting/staging tasks that list it as a direct
	// input, so a cache-update retries only the tasks that file could
	// unblock.
	staging     map[int]*taskState
	archived    map[int]*taskState
	fileWaiters map[string]map[int]bool
	// wakeSet collects waiting tasks worth retrying on the next pass;
	// stagingDirty collects staging tasks worth replanning. needFull forces
	// a whole-queue walk (resources freed, workers changed); stagingAll
	// replans every staging task (a transfer slot opened or closed).
	wakeSet      map[int]bool
	stagingDirty map[int]bool
	needFull     bool
	stagingAll   bool
	// liveWorkers caches the live workers sorted by join order, rebuilt
	// only when membership changes; workerInfoBuf is the reusable
	// policy.WorkerInfo scratch filled from it per scheduling decision.
	liveWorkers   []*workerConn
	workersDirty  bool
	liveCount     int
	workerInfoBuf []policy.WorkerInfo
	// stateCount mirrors the task population per lifecycle state (library
	// deployments included, archived tasks still counted — the gauges'
	// historical semantics); appStateCount excludes library tasks and feeds
	// Status. waitingZeroCore counts waiting tasks requesting zero cores,
	// the one shape the free-cores scheduling shortcut cannot rule out.
	stateCount      [taskspec.StateFailed + 1]int
	appStateCount   [taskspec.StateFailed + 1]int
	waitingZeroCore int
	// eventsHandled and passes feed the "schedule passes ≤ events" batching
	// invariant surfaced through DebugReport.
	eventsHandled int64
	passes        int64
	// needsBuf and needsSeen are fileNeedsScratch's reusable buffers, and
	// sendMsg is the reusable outgoing message for event-loop-owned hot
	// sends (dispatch): Send encodes the frame into the connection's queue
	// before returning, so the scratch may be overwritten as soon as the
	// call returns. All event-loop-owned.
	needsBuf  []policy.FileNeed
	needsSeen map[string]bool
	sendMsg   protocol.Message
	// place is the lookahead placement engine; nil unless cfg.Placement is
	// enabled. Event-loop-owned like everything above.
	place *placementEngine

	loopDone chan struct{}
	closing  bool

	// bg tracks every helper goroutine the manager starts — the accept
	// loop, per-connection readers, the result deliverer, asynchronous
	// sends and fetches — so Close can wait for all of them instead of
	// stranding goroutines holding sockets.
	bg sync.WaitGroup
	// connMu guards the accepted-connection registry below. It is a leaf
	// lock: nothing is called while it is held.
	connMu sync.Mutex
	// conns tracks accepted connections so Close can unblock reader
	// goroutines parked in Recv. guarded by connMu
	conns map[*protocol.Conn]struct{}
	// connsClosed flips when Close has shut the registry: connections
	// accepted after that are closed on arrival. guarded by connMu
	connsClosed bool
	// resMu guards resQ, the unbounded handoff queue between finishTask
	// (on the event loop) and deliverLoop. The loop appends and returns;
	// it never blocks on a slow application.
	resMu sync.Mutex
	// resQ holds finished results not yet pushed into the results
	// channel. guarded by resMu
	resQ []*Result
	// resSig wakes deliverLoop after an append (capacity 1, send is
	// non-blocking).
	resSig chan struct{}
}

type workerConn struct {
	id           string
	conn         *protocol.Conn
	transferAddr string
	capacity     resources.R
	pool         *resources.Pool
	running      map[int]bool
	joinOrder    int
	libsReady    map[string]bool
	gone         bool
	lastHeard    time.Time
	lastPinged   time.Time
}

type taskState struct {
	spec    *taskspec.Spec
	state   taskspec.State
	worker  string
	retries int
	// library marks internal LibraryTask deployments whose results are
	// not delivered to the application.
	library bool
	// notified suppresses duplicate result delivery when a task is
	// re-executed for recovery.
	notified bool
	// cancelled marks a task the application aborted: its completion
	// report, whatever it says, finishes the task without retries.
	cancelled bool
	// submitTime for metrics.
	submitTime float64
}

type librarySpec struct {
	name string
	res  resources.R
}

// event is the single message type of the manager loop.
type event struct {
	kind eventKind
	// registration
	conn *protocol.Conn
	msg  *protocol.Message
	data []byte // payload of data messages (small; large ones spool)
	// spool holds a large data payload on local disk instead of in memory;
	// its checksum was computed while spooling, off the event loop.
	spool *spool
	// API requests
	spec       *taskspec.Spec
	replyInt   chan int
	fetch      chan fetchResult
	file       string
	lib        *librarySpec
	done       chan struct{}
	workerID   string
	addr       string
	err        error
	status     chan Status
	debug      chan DebugReport
	goal       int
	taskID     int
	categories chan []CategoryStats
}

type eventKind int

const (
	evMsg eventKind = iota
	evWorkerGone
	evSubmit
	evFetch
	evInstallLib
	evEnd
	evTick
	evStatus
	evDebug
	evReplicate
	evCategories
	evInvoke
	evCancel
	evRedirect
)

type fetchResult struct {
	data []byte
	// spool, when non-nil, holds the payload on disk instead of in data.
	// Each waiter owns one reference and must call spool.release() after
	// consuming the file.
	spool *spool
	err   error
}

// spoolThreshold is the largest data payload the manager buffers in memory;
// anything bigger lands in a temporary spool file while the reader goroutine
// computes its checksum, so neither the event loop nor the heap ever holds a
// multi-gigabyte object.
const spoolThreshold = 1 << 20

// spool is a fetched payload parked on the manager's local disk. refs counts
// the waiters handed the spool; the last release removes the file.
type spool struct {
	path string
	size int64
	sum  string // hex MD5, computed while spooling
	refs atomic.Int32
}

func (s *spool) release() {
	if s.refs.Add(-1) <= 0 {
		_ = os.Remove(s.path)
	}
}

func (s *spool) readAll() ([]byte, error) { return os.ReadFile(s.path) }

// spoolPayload streams exactly size bytes from r into a fresh temp file,
// hashing as it copies. Runs on connection reader goroutines only.
func spoolPayload(r io.Reader, size int64) (*spool, error) {
	f, err := os.CreateTemp("", "vine-spool-*")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	digest := md5.New()
	n, err := protocol.CopyBuffer(f, io.TeeReader(io.LimitReader(r, size), digest))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != size {
		err = fmt.Errorf("core: spooled %d of %d payload bytes", n, size)
	}
	if err != nil {
		_ = os.Remove(path)
		return nil, err
	}
	return &spool{path: path, size: size, sum: hex.EncodeToString(digest.Sum(nil))}, nil
}

// NewManager starts a manager listening for workers.
func NewManager(cfg Config) (*Manager, error) {
	m := newManagerState(cfg)
	ln, err := net.Listen("tcp", m.cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("core: listening on %s: %w", m.cfg.ListenAddr, err)
	}
	m.ln = ln
	m.goBG(m.acceptLoop)
	m.goBG(m.deliverLoop)
	go m.eventLoop() // signals its exit by closing loopDone
	return m, nil
}

// newManagerState builds a fully initialized manager without the listener or
// the background goroutines. Benchmarks and white-box tests use it to drive
// the event-loop-owned state directly.
func newManagerState(cfg Config) *Manager {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 200 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 15 * time.Second
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 60 * time.Second
	}
	if cfg.TransferRetryLimit <= 0 {
		cfg.TransferRetryLimit = 4
	}
	if cfg.TransferBackoffBase <= 0 {
		cfg.TransferBackoffBase = 100 * time.Millisecond
	}
	if cfg.TransferBackoffMax <= 0 {
		cfg.TransferBackoffMax = 5 * time.Second
	}
	if (cfg.DefaultTaskResources == resources.R{}) {
		cfg.DefaultTaskResources = resources.R{Cores: 1}
	}
	tlog := cfg.Trace
	if tlog == nil {
		tlog = trace.NewLog()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	vm := metrics.ForRegistry(cfg.Metrics)
	// The bridge is the only writer of event-derived counters; the manager
	// itself only touches instruments for quantities the trace doesn't carry
	// (queue gauges, pass durations, dispatch latency, submissions).
	metrics.BridgeTrace(tlog, vm)
	cfg.Faults.SetMetrics(vm.ChaosInjections)
	var place *placementEngine
	if cfg.Placement.Enabled {
		place = newPlacementEngine(cfg.Placement)
	}
	reg := cfg.Files
	if reg == nil {
		reg = files.NewRegistry(cfg.Head)
	}
	return &Manager{
		cfg:           cfg,
		reg:           reg,
		events:        make(chan event, 1024),
		results:       make(chan *Result, 4096),
		tlog:          tlog,
		vm:            vm,
		start:         time.Now(),
		workers:       make(map[string]*workerConn),
		tasks:         make(map[int]*taskState),
		reps:          replica.NewTable(),
		trs:           replica.NewTransfers(),
		libs:          make(map[string]*librarySpec),
		fetches:       make(map[string][]chan fetchResult),
		replicaGoals:  make(map[string]int),
		transferRetry: make(map[transferKey]*transferRetryState),
		categories:    make(map[string]*CategoryStats),
		staging:       make(map[int]*taskState),
		archived:      make(map[int]*taskState),
		fileWaiters:   make(map[string]map[int]bool),
		wakeSet:       make(map[int]bool),
		stagingDirty:  make(map[int]bool),
		place:         place,
		loopDone:      make(chan struct{}),
		conns:         make(map[*protocol.Conn]struct{}),
		resSig:        make(chan struct{}, 1),
	}
}

// goBG runs fn on a goroutine tracked by the manager's background
// WaitGroup, so Close can wait for everything the manager started.
func (m *Manager) goBG(fn func()) {
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		fn()
	}()
}

// Addr returns the address workers should connect to.
func (m *Manager) Addr() string { return m.ln.Addr().String() }

// Files exposes the file registry for declarations.
func (m *Manager) Files() *files.Registry { return m.reg }

// Trace returns the manager's execution event log.
func (m *Manager) Trace() *trace.Log { return m.tlog }

// Metrics returns the registry holding the manager's instrument families.
func (m *Manager) Metrics() *metrics.Registry { return m.cfg.Metrics }

func (m *Manager) now() float64 { return time.Since(m.start).Seconds() }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf("manager: "+format, args...)
	}
}

// replyPool recycles the buffered one-shot channels the public API uses
// to rendezvous with the event loop. Submit and Invoke run at dispatch
// rate, so a fresh channel per call is a measurable slice of the
// dispatch hot-path allocations. A channel is recycled only after its
// reply has been drained (or when the event was never delivered); a
// channel whose event was accepted but left unanswered by an exiting
// loop is abandoned to the collector rather than risk a stale reply
// reaching a later borrower.
var replyPool = sync.Pool{New: func() any { return make(chan int, 1) }}

// Submit queues a task for execution and returns its ID. The spec's ID
// field is assigned by the manager. Inputs must already be declared.
func (m *Manager) Submit(spec *taskspec.Spec) (int, error) {
	spec = spec.Clone()
	spec.Resources = spec.Resources.Defaulted(m.cfg.DefaultTaskResources)
	for _, mt := range append(append([]taskspec.Mount(nil), spec.Inputs...), spec.Outputs...) {
		if _, ok := m.reg.Lookup(mt.FileID); !ok {
			return 0, fmt.Errorf("core: task references undeclared file %s", mt.FileID)
		}
	}
	// Validate before handing the spec to the event loop: once submitted,
	// the loop owns the clone exclusively.
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	reply := replyPool.Get().(chan int)
	select {
	case m.events <- event{kind: evSubmit, spec: spec, replyInt: reply}:
	case <-m.loopDone:
		replyPool.Put(reply)
		return 0, fmt.Errorf("core: manager is shutting down")
	}
	select {
	case id := <-reply:
		replyPool.Put(reply)
		if id < 0 {
			return 0, fmt.Errorf("core: manager is shutting down")
		}
		return id, nil
	case <-m.loopDone:
		// The loop may have answered just before exiting; prefer the
		// answer over the shutdown error when both are ready.
		select {
		case id := <-reply:
			replyPool.Put(reply)
			if id > 0 {
				return id, nil
			}
		default:
		}
		return 0, fmt.Errorf("core: manager is shutting down")
	}
}

// Invoke submits a serverless function call (§3.4). When a worker already
// runs an instance of the library, the call is routed straight to it with a
// lightweight invoke message, consuming no additional resource allocation;
// otherwise it falls back to normal task scheduling, which boots an
// ephemeral instance. The result arrives through Wait like any task's.
func (m *Manager) Invoke(library, function string, args []byte) (int, error) {
	spec := &taskspec.Spec{
		Kind:     taskspec.KindFunction,
		Library:  library,
		Function: function,
		Args:     append([]byte(nil), args...),
		Category: "function",
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	reply := replyPool.Get().(chan int)
	select {
	case m.events <- event{kind: evInvoke, spec: spec, replyInt: reply}:
	case <-m.loopDone:
		replyPool.Put(reply)
		return 0, fmt.Errorf("core: manager is shutting down")
	}
	select {
	case id := <-reply:
		replyPool.Put(reply)
		if id < 0 {
			return 0, fmt.Errorf("core: manager is shutting down")
		}
		return id, nil
	case <-m.loopDone:
		return 0, fmt.Errorf("core: manager is shutting down")
	}
}

// InvokeResident submits a function call whose result stays resident in
// the executing worker's cache — preferentially in its memory tier — and
// is never shipped back inline. The returned handle ID names the resident
// object; pass it to InvokeChained to feed it into a further call, attach
// it as a task input via its registry entry, or FetchFile it to finally
// materialize the bytes at the manager.
func (m *Manager) InvokeResident(library, function string, args []byte) (int, string, error) {
	return m.invokeResident(library, function, args, "")
}

// InvokeChained submits a resident function call whose argument bytes are
// the contents of handleID, a handle returned by a previous InvokeResident
// or InvokeChained. The argument object is resolved worker-side
// (pass-by-reference): chained calls move only the handle name through the
// manager, never the intermediate data.
func (m *Manager) InvokeChained(library, function, handleID string) (int, string, error) {
	if f, ok := m.reg.Lookup(handleID); !ok || f.Type != files.Handle {
		return 0, "", fmt.Errorf("core: %q is not a declared handle", handleID)
	}
	return m.invokeResident(library, function, nil, handleID)
}

func (m *Manager) invokeResident(library, function string, args []byte, argsFrom string) (int, string, error) {
	h := m.reg.DeclareHandle()
	spec := &taskspec.Spec{
		Kind:     taskspec.KindFunction,
		Library:  library,
		Function: function,
		Args:     append([]byte(nil), args...),
		Category: "function",
		Resident: true,
	}
	spec.AddOutput(h.ID, h.ID)
	if argsFrom != "" {
		spec.AddInput(argsFrom, argsFrom)
		spec.ArgsFrom = argsFrom
	}
	if err := spec.Validate(); err != nil {
		return 0, "", err
	}
	reply := replyPool.Get().(chan int)
	select {
	case m.events <- event{kind: evInvoke, spec: spec, replyInt: reply}:
	case <-m.loopDone:
		replyPool.Put(reply)
		return 0, "", fmt.Errorf("core: manager is shutting down")
	}
	select {
	case id := <-reply:
		replyPool.Put(reply)
		if id < 0 {
			return 0, "", fmt.Errorf("core: manager is shutting down")
		}
		return id, h.ID, nil
	case <-m.loopDone:
		return 0, "", fmt.Errorf("core: manager is shutting down")
	}
}

// Cancel aborts a submitted task. Waiting and staging tasks finish
// immediately with a cancellation result; running tasks are killed at their
// worker and finish when the worker's completion report arrives. Cancelling
// an unknown or already-finished task is an error.
func (m *Manager) Cancel(taskID int) error {
	reply := make(chan int, 1)
	select {
	case m.events <- event{kind: evCancel, taskID: taskID, replyInt: reply}:
	case <-m.loopDone:
		return fmt.Errorf("core: manager is shutting down")
	}
	select {
	case n := <-reply:
		if n < 0 {
			return fmt.Errorf("core: no cancellable task %d", taskID)
		}
		return nil
	case <-m.loopDone:
		return fmt.Errorf("core: manager is shutting down")
	}
}

// Wait returns the next completed task result, blocking until one is
// available or the context is cancelled.
func (m *Manager) Wait(ctx context.Context) (*Result, error) {
	select {
	case r := <-m.results:
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// queueResult hands a finished result to deliverLoop. The queue is
// unbounded and the wake-up signal non-blocking, so the event loop never
// waits on an application that has stopped calling Wait.
func (m *Manager) queueResult(r *Result) {
	m.resMu.Lock()
	m.resQ = append(m.resQ, r)
	m.resMu.Unlock()
	select {
	case m.resSig <- struct{}{}:
	default:
	}
}

// deliverLoop drains queued results into the buffered results channel
// that Wait reads. It exits when the event loop does; results finished by
// then are flushed so Wait keeps working after Close, as it always has.
func (m *Manager) deliverLoop() {
	for {
		m.resMu.Lock()
		var r *Result
		if len(m.resQ) > 0 {
			r = m.resQ[0]
			m.resQ = m.resQ[1:]
		}
		m.resMu.Unlock()
		if r == nil {
			select {
			case <-m.resSig:
				continue
			case <-m.loopDone:
				m.flushResults()
				return
			}
		}
		select {
		case m.results <- r:
		case <-m.loopDone:
			m.resMu.Lock()
			m.resQ = append([]*Result{r}, m.resQ...)
			m.resMu.Unlock()
			m.flushResults()
			return
		}
	}
}

// flushResults moves whatever fits into the results channel buffer at
// shutdown, without blocking.
func (m *Manager) flushResults() {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	for len(m.resQ) > 0 {
		select {
		case m.results <- m.resQ[0]:
			m.resQ = m.resQ[1:]
		default:
			return
		}
	}
}

// FetchFile retrieves the content of a file object back to the manager
// from whichever worker holds a replica.
func (m *Manager) FetchFile(ctx context.Context, fileID string) ([]byte, error) {
	if f, ok := m.reg.Lookup(fileID); ok && f.Type == files.Buffer {
		return append([]byte(nil), f.Content...), nil
	}
	reply := make(chan fetchResult, 1)
	select {
	case m.events <- event{kind: evFetch, file: fileID, fetch: reply}:
	case <-m.loopDone:
		return nil, fmt.Errorf("core: manager is shutting down")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-reply:
		if r.spool != nil {
			data, err := r.spool.readAll()
			r.spool.release()
			if err != nil {
				return nil, err
			}
			return data, r.err
		}
		return r.data, r.err
	case <-ctx.Done():
		// The fetch may still resolve into the buffered reply; if it
		// delivers a spool, release the abandoned reference so the file is
		// not leaked.
		m.goBG(func() {
			select {
			case r := <-reply:
				if r.spool != nil {
					r.spool.release()
				}
			case <-m.loopDone:
			}
		})
		return nil, ctx.Err()
	}
}

// InstallLibrary deploys the named serverless library to every current and
// future worker, each instance consuming the given static resource
// allocation (§3.4).
func (m *Manager) InstallLibrary(name string, res resources.R) {
	if (res == resources.R{}) {
		res = resources.R{Cores: 1}
	}
	select {
	case m.events <- event{kind: evInstallLib, lib: &librarySpec{name: name, res: res}}:
	case <-m.loopDone:
	}
}

// ReplicateFile asks the manager to maintain at least n replicas of the
// file across workers, for reliability and to increase transfer concurrency
// for hot objects (§2.2). The goal is reconciled continuously as workers
// join and leave; n <= 1 removes the goal.
func (m *Manager) ReplicateFile(fileID string, n int) error {
	if _, ok := m.reg.Lookup(fileID); !ok {
		return fmt.Errorf("core: unknown file %s", fileID)
	}
	select {
	case m.events <- event{kind: evReplicate, file: fileID, goal: n}:
	case <-m.loopDone:
		return fmt.Errorf("core: manager is shutting down")
	}
	return nil
}

// RedirectWorker leases a connected worker to another manager: the worker
// is sent a redirect instruction naming addr and re-registers there through
// its normal reconnect path, keeping its cache contents. The worker leaves
// this manager as if its connection dropped (tasks it was running are
// requeued), so callers should prefer redirecting idle workers. It is the
// handoff hook the sharded control plane (internal/shard) uses to migrate
// workers from an idle shard to a backlogged one.
func (m *Manager) RedirectWorker(workerID, addr string) error {
	reply := make(chan int, 1)
	select {
	case m.events <- event{kind: evRedirect, workerID: workerID, addr: addr, replyInt: reply}:
	case <-m.loopDone:
		return fmt.Errorf("core: manager is shutting down")
	}
	select {
	case n := <-reply:
		if n < 0 {
			return fmt.Errorf("core: no connected worker %s", workerID)
		}
		return nil
	case <-m.loopDone:
		return fmt.Errorf("core: manager is shutting down")
	}
}

// EndWorkflow concludes the current workflow: workers discard all
// ephemeral objects and the replica table forgets them. Worker-lifetime
// objects persist for future workflows (§3.2).
func (m *Manager) EndWorkflow() {
	done := make(chan struct{})
	select {
	case m.events <- event{kind: evEnd, done: done}:
	case <-m.loopDone:
		return
	}
	select {
	case <-done:
	case <-m.loopDone:
	}
}

// Close releases all workers and stops the manager. Close is idempotent.
func (m *Manager) Close() {
	done := make(chan struct{})
	select {
	case <-m.loopDone:
		// Already closed.
	case m.events <- event{kind: evEnd, done: done, err: errClosing}:
		// The loop may have exited between the check and the send (a
		// concurrent Close); waiting on either channel covers both cases.
		select {
		case <-done:
		case <-m.loopDone:
		}
	}
	// The accept loop exits on this close; its error carries no news.
	_ = m.ln.Close()
	// Unblock every connection reader parked in Recv: the loop is gone,
	// nobody will drain their events. New arrivals are closed on accept.
	// Each Close first writes out what the loop queued (the release
	// frames), so the connections close in parallel: one worker that
	// stopped reading costs its drain deadline once, not once per worker.
	m.connMu.Lock()
	m.connsClosed = true
	conns := make([]*protocol.Conn, 0, len(m.conns))
	for conn := range m.conns { // hotpath-ok: shutdown-only walk of live connections
		conns = append(conns, conn)
	}
	m.connMu.Unlock()
	for _, conn := range conns {
		m.goBG(func() { _ = conn.Close() })
	}
	m.bg.Wait()
}

var errClosing = fmt.Errorf("closing")

func (m *Manager) acceptLoop() {
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return
		}
		conn := protocol.NewConn(nc)
		if !m.trackConn(conn) {
			continue // shutting down; trackConn closed it
		}
		m.goBG(func() { m.handleConn(conn) })
	}
}

// trackConn registers an accepted connection so Close can unblock its
// reader; during shutdown the connection is refused (closed) instead.
func (m *Manager) trackConn(conn *protocol.Conn) bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.connsClosed {
		_ = conn.Close()
		return false
	}
	m.conns[conn] = struct{}{}
	return true
}

// untrackConn forgets a connection whose reader has exited.
func (m *Manager) untrackConn(conn *protocol.Conn) {
	m.connMu.Lock()
	delete(m.conns, conn)
	m.connMu.Unlock()
}

// handleConn performs registration then pumps messages into the event loop.
// Payloads of data messages are read fully here so the loop never blocks on
// network I/O.
// Every event send is guarded by loopDone: once the loop has exited
// nothing drains the channel, and an unguarded send would strand this
// reader forever. A connection whose reader has exited is useless, so the
// reader closes it on the way out, which also stops its writer.
func (m *Manager) handleConn(conn *protocol.Conn) {
	defer m.untrackConn(conn)
	// Nothing to report the close error to: the link is done either way.
	defer conn.Close()
	regMsg, _, err := conn.Recv()
	if err != nil || regMsg.Type != protocol.TypeRegister || regMsg.WorkerID == "" {
		return
	}
	select {
	case m.events <- event{kind: evMsg, conn: conn, msg: regMsg}:
	case <-m.loopDone:
		return
	}
	workerID := regMsg.WorkerID
	for {
		msg, payload, err := conn.Recv()
		if err != nil {
			select {
			case m.events <- event{kind: evWorkerGone, workerID: workerID, err: err}:
			case <-m.loopDone:
			}
			return
		}
		var data []byte
		var sp *spool
		if payload != nil {
			switch {
			case msg.Type == protocol.TypeData && msg.Size > spoolThreshold:
				// Large object fetch: stream to disk, hashing as we go, so
				// the size claimed by the worker never drives an allocation.
				sp, err = spoolPayload(payload, msg.Size)
				if err != nil {
					select {
					case m.events <- event{kind: evWorkerGone, workerID: workerID, err: err}:
					case <-m.loopDone:
					}
					return
				}
			case msg.Type != protocol.TypeData && msg.Size > protocol.MaxControlPayload:
				// An untrusted size this large on a control message is either
				// a bug or an attack; reject it without allocating. The
				// unread payload is drained by the next Recv.
				m.logf("rejecting %s from %s: payload of %d bytes exceeds limit %d",
					msg.Type, workerID, msg.Size, protocol.MaxControlPayload)
				_ = conn.Send(&protocol.Message{
					Type: protocol.TypeError, CacheName: msg.CacheName,
					Error: fmt.Sprintf("core: %s payload of %d bytes exceeds limit %d",
						msg.Type, msg.Size, protocol.MaxControlPayload),
				})
				continue
			default:
				data = make([]byte, msg.Size)
				if _, err := io.ReadFull(payload, data); err != nil {
					select {
					case m.events <- event{kind: evWorkerGone, workerID: workerID, err: err}:
					case <-m.loopDone:
					}
					return
				}
			}
		}
		select {
		case m.events <- event{kind: evMsg, msg: msg, data: data, spool: sp, workerID: workerID}:
		case <-m.loopDone:
			if sp != nil {
				sp.release()
			}
			return
		}
	}
}

// batchLimit caps how many queued events one scheduling pass absorbs, so a
// sustained flood cannot starve the ticker's liveness checks.
const batchLimit = 256

func (m *Manager) eventLoop() {
	defer close(m.loopDone)
	ticker := time.NewTicker(m.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case ev := <-m.events:
			if m.handleBatch(ev) {
				return
			}
		case <-ticker.C:
			m.eventsHandled++
			m.checkLiveness()
			// The tick is the safety net behind the incremental dirty
			// tracking: force a complete pass so nothing stays stuck behind
			// a missed wake-up for longer than one tick interval.
			m.needFull = true
			m.stagingAll = true
			m.schedule()
		}
	}
}

// handleBatch drains the event channel non-blockingly (up to batchLimit) so
// a burst of N messages triggers one schedule() pass, not N. Returns true
// when the loop must exit.
func (m *Manager) handleBatch(ev event) bool {
	for n := 0; ; {
		m.eventsHandled++
		if m.handleEvent(ev) {
			return true
		}
		n++
		if n >= batchLimit {
			break
		}
		select {
		case ev = <-m.events:
			continue
		default:
		}
		break
	}
	m.schedule()
	return false
}

// handleEvent dispatches one event; returns true when the loop must exit.
func (m *Manager) handleEvent(ev event) bool {
	switch ev.kind {
	case evMsg:
		m.handleMessage(ev)
	case evWorkerGone:
		m.workerGone(ev.workerID)
	case evSubmit:
		if m.closing {
			ev.replyInt <- -1
			return false
		}
		m.autoSize(ev.spec)
		m.nextID++
		id := m.nextID
		ev.spec.ID = id
		m.trackNew(id, &taskState{spec: ev.spec, state: taskspec.StateWaiting, submitTime: m.now()})
		m.waiting = append(m.waiting, id)
		m.wakeSet[id] = true
		m.pendingWk++
		m.vm.TasksSubmitted.Inc()
		m.reg.Retain(ev.spec.InputIDs())
		for _, out := range ev.spec.Outputs {
			m.reg.SetProducer(out.FileID, id)
		}
		ev.replyInt <- id
	case evFetch:
		m.startFetch(ev.file, ev.fetch)
	case evInstallLib:
		m.libs[ev.lib.name] = ev.lib
		m.needFull = true
		for _, w := range m.workers {
			m.deployLibraryTo(w, ev.lib)
		}
	case evEnd:
		m.endWorkflow(ev.err != nil)
		close(ev.done)
		if ev.err != nil {
			return true
		}
	case evTick:
		if ev.replyInt != nil {
			ev.replyInt <- m.pendingWk
		}
	case evStatus:
		ev.status <- m.buildStatus()
	case evDebug:
		ev.debug <- m.buildDebug()
	case evReplicate:
		m.replicaGoals[ev.file] = ev.goal
		m.needFull = true
	case evInvoke:
		if m.closing {
			ev.replyInt <- -1
			return false
		}
		m.handleInvoke(ev)
	case evCancel:
		if m.cancelTask(ev.taskID) {
			ev.replyInt <- 0
		} else {
			ev.replyInt <- -1
		}
	case evCategories:
		ev.categories <- m.buildCategories()
	case evRedirect:
		m.redirectWorker(ev)
	}
	return false
}

// redirectWorker sends a TypeRedirect to a connected worker, leasing it to
// the manager at ev.addr. Runs inside the event loop.
func (m *Manager) redirectWorker(ev event) {
	w, ok := m.workers[ev.workerID]
	if !ok || w.gone {
		ev.replyInt <- -1
		return
	}
	if err := w.conn.Send(&protocol.Message{Type: protocol.TypeRedirect, URL: ev.addr}); err != nil {
		// A failed send means the link is dying; the reader goroutine will
		// report workerGone shortly. The lease still "succeeded" in the
		// sense that the worker is leaving this shard.
		m.logf("redirect send to %s failed: %v", ev.workerID, err)
	}
	m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.WorkerRedirected, Worker: ev.workerID, Detail: ev.addr})
	ev.replyInt <- 0
}

// Empty reports whether all submitted tasks have finished. Like the
// original TaskVine API, applications loop: for !m.Empty() { m.Wait(...) }.
func (m *Manager) Empty() bool {
	reply := make(chan int, 1)
	select {
	case m.events <- event{kind: evTick, replyInt: reply}:
	case <-m.loopDone:
		return true
	}
	// pendingWk is read in the loop via the reply channel hack below.
	select {
	case n := <-reply:
		return n == 0
	case <-m.loopDone:
		return true
	}
}
