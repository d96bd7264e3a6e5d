//! The session registry: every admitted session's id, lifecycle state,
//! and (optionally) its flight-recorder trace.

use ppdbscan::session::Mode;
use ppds_observe::SessionTrace;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Lifecycle of one admitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, waiting for a worker slot.
    Queued,
    /// A worker is executing the protocol.
    Running,
    /// The protocol finished and produced an outcome.
    Completed,
    /// The protocol aborted (handshake mismatch, transport error, timeout).
    Failed,
    /// Shed before running: the drain deadline passed while it was queued.
    Dropped,
}

impl SessionState {
    /// Whether the session has ended (completed, failed or dropped).
    fn is_terminal(self) -> bool {
        !matches!(self, SessionState::Queued | SessionState::Running)
    }

    /// Stable lowercase name for the operator endpoint.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Completed => "completed",
            SessionState::Failed => "failed",
            SessionState::Dropped => "dropped",
        }
    }
}

/// One registry row, as exposed to operators and tests.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// The granted session id.
    pub id: u64,
    /// The negotiated protocol family.
    pub mode: Mode,
    /// The client's socket address.
    pub peer: String,
    /// Current lifecycle state.
    pub state: SessionState,
    /// Whether round batching was adopted for this session.
    pub batching: bool,
    /// Whether plaintext-slot packing was adopted for this session.
    pub packing: bool,
}

struct Entry {
    info: SessionInfo,
    trace: Option<SessionTrace>,
}

/// Ended sessions the registry keeps for the operator endpoint. A server
/// that answers a few hundred sessions a second would otherwise grow by
/// tens of megabytes an hour — the faster its sessions, the faster.
pub const RETAINED_ENDED_SESSIONS: usize = 1024;

struct Inner {
    next_id: u64,
    entries: BTreeMap<u64, Entry>,
    /// Entries in a terminal state.
    ended: usize,
    /// The highest id ever evicted. Ids up to it are never granted again:
    /// a session's server-side seed derives from its id, and a second
    /// session under the same seed would repeat the first one's masks.
    evicted_through: u64,
}

impl Inner {
    /// Books one more ended session and evicts the ended sessions with the
    /// lowest ids beyond [`RETAINED_ENDED_SESSIONS`].
    fn note_ended(&mut self) {
        self.ended += 1;
        while self.ended > RETAINED_ENDED_SESSIONS {
            let oldest = self
                .entries
                .iter()
                .find(|(_, entry)| entry.info.state.is_terminal())
                .map(|(&id, _)| id)
                .expect("`ended` counts the terminal entries");
            self.entries.remove(&oldest);
            self.evicted_through = self.evicted_through.max(oldest);
            self.ended -= 1;
        }
    }

    /// Moves session `id` to `state`, keeping the ended count in step.
    fn transition(&mut self, id: u64, state: SessionState, trace: Option<SessionTrace>) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        let had_ended = entry.info.state.is_terminal();
        entry.info.state = state;
        if trace.is_some() {
            entry.trace = trace;
        }
        if state.is_terminal() && !had_ended {
            self.note_ended();
        }
    }
}

/// Threadsafe store of the sessions the server has admitted — every live
/// one and the last [`RETAINED_ENDED_SESSIONS`] that ended — keyed by
/// session id. Ids are granted at admission: a client's proposed id is
/// honored when it was never granted before (so a test driving the server
/// can predict the server-side seed), otherwise the next unused id is
/// assigned.
pub struct SessionRegistry {
    inner: Mutex<Inner>,
}

impl SessionRegistry {
    /// An empty registry; ids start at 1 (0 means "assign me one" on the
    /// wire).
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            inner: Mutex::new(Inner {
                next_id: 1,
                entries: BTreeMap::new(),
                ended: 0,
                evicted_through: 0,
            }),
        }
    }

    /// Registers a new session in [`SessionState::Queued`] and returns the
    /// granted id: `proposed` when nonzero and never granted, the next free
    /// id otherwise.
    pub fn admit(
        &self,
        proposed: u64,
        mode: Mode,
        peer: String,
        batching: bool,
        packing: bool,
    ) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let unused = proposed > inner.evicted_through && !inner.entries.contains_key(&proposed);
        let id = if proposed != 0 && unused {
            proposed
        } else {
            inner.next_id = inner.next_id.max(inner.evicted_through + 1);
            while inner.entries.contains_key(&inner.next_id) {
                inner.next_id += 1;
            }
            inner.next_id
        };
        inner.next_id = inner.next_id.max(id + 1);
        inner.entries.insert(
            id,
            Entry {
                info: SessionInfo {
                    id,
                    mode,
                    peer,
                    state: SessionState::Queued,
                    batching,
                    packing,
                },
                trace: None,
            },
        );
        id
    }

    /// Moves session `id` to `state` (no-op for unknown ids).
    pub fn set_state(&self, id: u64, state: SessionState) {
        self.inner.lock().unwrap().transition(id, state, None);
    }

    /// Terminal transition: sets the state and stores the session's trace
    /// when one was recorded.
    pub fn finish(&self, id: u64, state: SessionState, trace: Option<SessionTrace>) {
        self.inner.lock().unwrap().transition(id, state, trace);
    }

    /// The current row for session `id`, if admitted.
    pub fn get(&self, id: u64) -> Option<SessionInfo> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(&id)
            .map(|e| e.info.clone())
    }

    /// All retained rows in id order.
    pub fn snapshot(&self) -> Vec<SessionInfo> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .values()
            .map(|e| e.info.clone())
            .collect()
    }

    /// How many sessions are currently in `state`.
    pub fn count(&self, state: SessionState) -> usize {
        self.inner
            .lock()
            .unwrap()
            .entries
            .values()
            .filter(|e| e.info.state == state)
            .count()
    }

    /// Chrome/Perfetto JSON for session `id`'s flight-recorder trace, if
    /// one was recorded (sessions record traces only when the server runs
    /// with [`crate::ServerConfig::record_traces`]).
    pub fn chrome_trace(&self, id: u64) -> Option<String> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(&id)
            .and_then(|e| e.trace.as_ref())
            .map(|t| t.to_chrome_json(&format!("session-{id}")))
    }
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(reg: &SessionRegistry, proposed: u64) -> u64 {
        reg.admit(proposed, Mode::Horizontal, "test".into(), false, false)
    }

    #[test]
    fn proposed_ids_honored_when_free() {
        let reg = SessionRegistry::new();
        assert_eq!(admit(&reg, 7), 7);
        // Collision: falls back to the next unused id past the grant.
        assert_eq!(admit(&reg, 7), 8);
        // 0 means "assign me one".
        assert_eq!(admit(&reg, 0), 9);
        assert_eq!(reg.snapshot().len(), 3);
    }

    #[test]
    fn ended_sessions_are_retained_up_to_a_bound_and_their_ids_never_reused() {
        let reg = SessionRegistry::new();
        // One session that never ends, then more ended ones than are kept.
        let live = admit(&reg, 0);
        reg.set_state(live, SessionState::Running);
        for _ in 0..RETAINED_ENDED_SESSIONS + 10 {
            let id = admit(&reg, 0);
            reg.finish(id, SessionState::Completed, None);
        }
        assert_eq!(reg.count(SessionState::Completed), RETAINED_ENDED_SESSIONS);
        assert_eq!(reg.get(live).unwrap().state, SessionState::Running);
        // The ten oldest ended sessions (ids 2..=11) are gone ...
        assert!(reg.get(11).is_none() && reg.get(12).is_some());
        // ... and proposing one of their ids does not bring its seed back.
        let regranted = admit(&reg, 5);
        assert_eq!(regranted, RETAINED_ENDED_SESSIONS as u64 + 12);
        // Ending twice counts once.
        reg.set_state(regranted, SessionState::Failed);
        reg.finish(regranted, SessionState::Failed, None);
        assert_eq!(
            reg.snapshot().len(),
            RETAINED_ENDED_SESSIONS + 1,
            "the live session and the retained ended ones"
        );
    }

    #[test]
    fn lifecycle_transitions_and_counts() {
        let reg = SessionRegistry::new();
        let id = admit(&reg, 0);
        assert_eq!(reg.get(id).unwrap().state, SessionState::Queued);
        reg.set_state(id, SessionState::Running);
        assert_eq!(reg.count(SessionState::Running), 1);
        reg.finish(id, SessionState::Completed, None);
        assert_eq!(reg.get(id).unwrap().state, SessionState::Completed);
        assert_eq!(reg.chrome_trace(id), None);
    }
}
