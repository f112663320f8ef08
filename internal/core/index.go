package core

import (
	"sort"

	"taskvine/internal/policy"
	"taskvine/internal/taskspec"
)

// This file holds the bookkeeping behind the incremental scheduler: every
// task-state transition flows through setState so the per-state counters,
// the staging set, and the file→waiting-tasks index stay exact, and the
// live-worker list is cached so candidate selection never re-sorts per task.

// waitsOnFiles reports whether a task in the given state belongs in the
// fileWaiters index: waiting tasks can be unblocked by a replica appearing
// (lost-temp recovery, locality), staging tasks by an input landing at a
// worker.
func waitsOnFiles(s taskspec.State) bool {
	return s == taskspec.StateWaiting || s == taskspec.StateStaging
}

// countState adjusts the per-state population counters for one task.
func (m *Manager) countState(t *taskState, s taskspec.State, delta int) {
	m.stateCount[s] += delta
	if !t.library {
		m.appStateCount[s] += delta
	}
	if s == taskspec.StateWaiting && t.spec.Resources.Cores == 0 {
		m.waitingZeroCore += delta
	}
}

// trackNew registers a freshly created task in the hot map and every index.
func (m *Manager) trackNew(id int, t *taskState) {
	m.tasks[id] = t
	m.countState(t, t.state, 1)
	if waitsOnFiles(t.state) {
		m.indexInputs(id, t)
	}
	if t.state == taskspec.StateStaging {
		m.staging[id] = t
	}
}

// dropTask forgets a task entirely (library deployments that died with
// their worker or never started). Unlike archive, the counters forget it
// too.
func (m *Manager) dropTask(id int, t *taskState) {
	delete(m.tasks, id)
	m.countState(t, t.state, -1)
	if waitsOnFiles(t.state) {
		m.unindexInputs(id, t)
	}
	if t.state == taskspec.StateStaging {
		delete(m.staging, id)
		delete(m.stagingDirty, id)
	}
	delete(m.wakeSet, id)
}

// setState moves a task between lifecycle states, keeping every index
// consistent. All transitions must go through here.
func (m *Manager) setState(id int, t *taskState, s taskspec.State) {
	old := t.state
	if old == s {
		return
	}
	m.countState(t, old, -1)
	t.state = s
	m.countState(t, s, 1)
	if old == taskspec.StateStaging {
		delete(m.staging, id)
		delete(m.stagingDirty, id)
	}
	if s == taskspec.StateStaging {
		m.staging[id] = t
	}
	switch {
	case waitsOnFiles(old) && !waitsOnFiles(s):
		m.unindexInputs(id, t)
	case !waitsOnFiles(old) && waitsOnFiles(s):
		m.indexInputs(id, t)
	}
}

// archive moves a delivered terminal producer out of the hot map. The state
// counters are deliberately NOT decremented: the gauges keep counting done
// and failed tasks for the whole workflow, as they always have. The task
// stays reachable through taskByID for recovery re-execution.
func (m *Manager) archive(id int, t *taskState) {
	delete(m.tasks, id)
	m.archived[id] = t
}

// taskByID finds a task in the hot map or the archive.
func (m *Manager) taskByID(id int) *taskState {
	if t := m.tasks[id]; t != nil {
		return t
	}
	return m.archived[id]
}

// unarchive returns an archived task to the hot map (recovery re-execution
// of a done producer). No-op for live tasks.
func (m *Manager) unarchive(id int, t *taskState) {
	if m.archived[id] == t {
		delete(m.archived, id)
		m.tasks[id] = t
	}
}

// indexInputs records the task under each of its direct inputs.
func (m *Manager) indexInputs(id int, t *taskState) {
	for _, in := range t.spec.Inputs {
		set := m.fileWaiters[in.FileID]
		if set == nil {
			set = make(map[int]bool)
			m.fileWaiters[in.FileID] = set
		}
		set[id] = true
		m.placementIndex(in.FileID, len(set))
	}
}

func (m *Manager) unindexInputs(id int, t *taskState) {
	for _, in := range t.spec.Inputs {
		if set := m.fileWaiters[in.FileID]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(m.fileWaiters, in.FileID)
			}
			m.placementIndex(in.FileID, len(set))
		}
	}
}

// wakeFile marks every task that lists the file as a direct input for
// re-evaluation: waiting consumers retry assignment, staging consumers
// replan their transfers. This is what lets a cache-update touch only the
// tasks it could actually unblock instead of rescanning the whole queue.
func (m *Manager) wakeFile(fileID string) {
	for id := range m.fileWaiters[fileID] {
		t := m.tasks[id]
		if t == nil {
			continue
		}
		switch t.state {
		case taskspec.StateWaiting:
			m.wakeSet[id] = true
		case taskspec.StateStaging:
			m.stagingDirty[id] = true
		}
	}
}

// liveWorkerList returns the live workers sorted by join order. The slice
// is cached and rebuilt only when membership changes, so per-task candidate
// selection stops allocating and sorting.
func (m *Manager) liveWorkerList() []*workerConn {
	if m.workersDirty {
		m.liveWorkers = m.liveWorkers[:0]
		for _, w := range m.workers { // hotpath-ok: runs only after join/leave
			if !w.gone {
				m.liveWorkers = append(m.liveWorkers, w)
			}
		}
		ws := m.liveWorkers
		// hotpath-ok: rebuild is amortized over membership changes, not per task
		sort.Slice(ws, func(i, j int) bool { return ws[i].joinOrder < ws[j].joinOrder })
		m.workersDirty = false
	}
	return m.liveWorkers
}

// workerInfos fills the reusable scratch slice with a policy view of the
// live workers (already join-ordered), optionally filtered to those with a
// ready instance of a library. Resource vectors are read fresh on every
// call: allocations earlier in the same pass must be visible.
func (m *Manager) workerInfos(needLib string) []policy.WorkerInfo {
	buf := m.workerInfoBuf[:0]
	for _, w := range m.liveWorkerList() {
		if needLib != "" && !w.libsReady[needLib] {
			continue
		}
		buf = append(buf, policy.WorkerInfo{
			ID:           w.id,
			Free:         w.pool.Free(),
			RunningTasks: len(w.running),
			JoinOrder:    w.joinOrder,
		})
	}
	m.workerInfoBuf = buf
	return buf
}
